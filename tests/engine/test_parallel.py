"""Process-pool builds and bounded-memory spilling: exactness first.

The multicore layer (:mod:`repro.engine.parallel`) and the tile-budget
layer in :class:`~repro.engine.storage.TiledStorage` are pure
performance features — neither may move a float.  These tests pin that:

* process-built tiles (pure-Python backend, ``workers`` > 1) are
  **element-wise identical** to the serial build across dtypes × block
  sizes, and stay identical through ``apply_delta`` patches; the NumPy
  backend builds serially whatever ``workers`` says;
* closure-based providers (unpicklable snapshots) fall back to the
  serial build silently and correctly;
* a spilling grid (``max_resident_tiles`` / ``max_resident_bytes``,
  with or without ``spill_dir``) answers every read exactly like an
  unbounded one, while actually holding resident tiles at the budget;
* row reads served out of the spill segment come back byte-identical
  to an unbounded grid on both backends and dtypes;
* the warm pool registry leases byte-identical snapshots only — hit/
  miss/evict/TTL/invalidate lifecycle, ``apply_delta`` invalidation,
  and float-identical warm-vs-cold builds;
* the sketched landmark columns built through the process pool equal
  the serially built sketch.
"""

import pytest

from repro.api import ApiError, EngineConfig
from repro.core.functions import DistanceFunction, RelevanceFunction
from repro.core.objectives import Objective, ObjectiveKind
from repro.engine import (
    KernelError,
    ScoringKernel,
    TiledStorage,
    available_cpus,
    numpy_available,
    resolve_workers,
)
from repro.engine.parallel import (
    ProcessTileBuilder,
    WarmPoolRegistry,
    warm_pool_registry,
)
from repro.workloads.synthetic import random_instance

BACKENDS = [False] + ([True] if numpy_available() else [])


def tiled_kernel(instance, use_numpy, **knobs):
    knobs.setdefault("storage", "tiled")
    return ScoringKernel(instance, use_numpy=use_numpy, config=EngineConfig(**knobs))


def closure_instance(n=14, k=4, seed=5):
    """An instance whose scoring snapshot cannot pickle (lambdas)."""
    base = random_instance(
        n=n, k=k, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=seed
    )
    objective = Objective(
        ObjectiveKind.MAX_SUM,
        relevance=RelevanceFunction.from_callable(
            lambda row: float(row.values[2]), name="closure_rel"
        ),
        distance=DistanceFunction.from_callable(
            lambda a, b: abs(float(a.values[2]) - float(b.values[2])),
            name="closure_dis",
        ),
        lam=0.5,
    )
    return base.with_objective(objective)


def assert_matrices_equal(expected, actual):
    assert actual.n == expected.n
    assert actual.distance_rows() == expected.distance_rows()
    assert actual.row_distance_sums() == expected.row_distance_sums()
    for i in range(expected.n):
        for j in range(expected.n):
            assert actual.distance_between(i, j) == expected.distance_between(
                i, j
            )


class TestKnobs:
    def test_validate_workers_passthrough(self):
        for workers in (None, "auto", 3):
            config = EngineConfig(storage="tiled", workers=workers)
            assert config.validate().workers == workers

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "many"])
    def test_validate_workers_rejects(self, bad):
        with pytest.raises(ApiError, match="workers"):
            EngineConfig(storage="tiled", workers=bad).validate()

    def test_validate_workers_custom_error(self):
        instance = random_instance(n=8, k=3, seed=1)
        with pytest.raises(KernelError, match="workers"):
            tiled_kernel(instance, False, workers=0)

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(5) == 5
        assert resolve_workers("auto") == available_cpus()
        assert available_cpus() >= 1

    def test_kernel_accepts_auto_and_rejects_dense_workers(self):
        instance = random_instance(n=8, k=3, seed=1)
        kernel = tiled_kernel(instance, False, workers="auto")
        assert kernel.config.workers == "auto"
        with pytest.raises(KernelError, match="serially"):
            tiled_kernel(instance, False, storage="dense", workers=2)


class TestProcessParity:
    """Worker-built tiles hold the same floats a serial build would."""

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("dtype", [None, "float32"])
    @pytest.mark.parametrize("block_size", [3, 7, 12])
    def test_identical_to_serial(self, use_numpy, dtype, block_size):
        instance = random_instance(
            n=23, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        serial = tiled_kernel(
            instance, use_numpy, block_size=block_size, dtype=dtype
        )
        pooled = tiled_kernel(
            instance,
            use_numpy,
            block_size=block_size,
            dtype=dtype,
            workers=2,
        )
        serial.materialize_all()
        pooled.materialize_all()
        assert pooled._storage.is_fully_built
        assert_matrices_equal(serial, pooled)

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_identical_through_apply_delta(self, use_numpy):
        instance = random_instance(
            n=19, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=6
        )
        serial = tiled_kernel(instance, use_numpy, block_size=5)
        pooled = tiled_kernel(
            instance, use_numpy, block_size=5, workers=2
        )
        serial.materialize_all()
        pooled.materialize_all()
        rows = list(instance.answers())
        for kernel in (serial, pooled):
            kernel.apply_delta(
                inserted=[rows[3], rows[7]], deleted=[rows[1], rows[10]]
            )
        assert pooled.answers == serial.answers
        assert_matrices_equal(serial, pooled)

    def test_builder_refuses_unpicklable_snapshot(self):
        closed = closure_instance()
        kernel = ScoringKernel(closed, use_numpy=False)
        builder = ProcessTileBuilder.create(
            kernel.provider, tuple(closed.answers()), 2
        )
        assert builder is None

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_closure_provider_degrades_to_serial(self, use_numpy):
        """workers > 1 on an unpicklable snapshot must build the exact
        grid anyway (silently, through the serial path)."""
        instance = closure_instance()
        serial = tiled_kernel(instance, use_numpy, block_size=4)
        pooled = tiled_kernel(
            instance, use_numpy, block_size=4, workers=2
        )
        serial.materialize_all()
        pooled.materialize_all()
        assert pooled._storage.is_fully_built
        assert_matrices_equal(serial, pooled)


class TestSpilling:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("budget", [dict(max_resident_tiles=2),
                                        dict(max_resident_bytes=1024)])
    def test_bounded_grid_reads_exactly(self, use_numpy, budget):
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        bounded = tiled_kernel(instance, use_numpy, block_size=4, **budget)
        bounded.materialize_all()
        storage = bounded._storage
        assert isinstance(storage, TiledStorage)
        stats = storage.spill_stats
        assert stats["evictions"] > 0
        assert stats["rebuilds"] == 0  # materialize evicts; no re-read yet
        assert_matrices_equal(dense, bounded)
        assert storage.spill_stats["rebuilds"] > 0

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_budget_holds_during_full_materialization(self, use_numpy):
        instance = random_instance(n=20, k=4, seed=3)
        kernel = tiled_kernel(
            instance, use_numpy, block_size=4, max_resident_tiles=3
        )
        kernel.materialize_all()
        stats = kernel.storage_stats()
        assert stats is not None
        assert 1 <= stats["resident_tiles"] <= 3

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_spill_dir_round_trips_exactly(self, use_numpy, tmp_path):
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        spilled = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            max_resident_tiles=2,
            spill_dir=str(tmp_path),
        )
        spilled.materialize_all()
        assert_matrices_equal(dense, spilled)
        stats = spilled.storage_stats()
        assert stats["spills"] > 0
        # Spilled tiles come back off the segment — whole (spill_loads)
        # or as row windows (mmap_reads) — and are never rescored.
        assert stats["spill_loads"] + stats["mmap_reads"] > 0
        assert stats["rebuilds"] == 0
        assert list(tmp_path.iterdir()), "spill_dir holds no tile files"

    def test_storage_stats_surface(self):
        instance = random_instance(n=10, k=3, seed=1)
        deferred = ScoringKernel(instance, use_numpy=False, defer_distances=True)
        stats = deferred.storage_stats()
        assert stats["kind"] == "deferred"
        assert stats["resident_bytes"] == 0
        dense = ScoringKernel(instance, use_numpy=False)
        stats = dense.storage_stats()
        assert stats["kind"] == "dense"
        assert stats["resident_tiles"] == 1
        assert stats["resident_bytes"] == dense.n * dense.n * 8
        assert stats["evictions"] == 0 and stats["mmap_reads"] == 0
        unbudgeted = tiled_kernel(instance, False, block_size=4)
        unbudgeted.materialize_all()
        stats = unbudgeted.storage_stats()
        assert stats["evictions"] == 0 and stats["spills"] == 0
        assert stats["resident_tiles"] == unbudgeted._storage.tiles_built
        budgeted = tiled_kernel(
            instance, False, block_size=4, max_resident_tiles=2
        )
        budgeted.materialize_all()
        stats = budgeted.storage_stats()
        assert stats["kind"] == "tiled"
        assert stats["evictions"] > 0
        # Every kind reports the same keys — aggregators never branch.
        assert set(stats) == set(dense.storage_stats())

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_process_build_into_spilling_grid(self, use_numpy):
        """The two features compose: pool-built tiles land in a budgeted
        grid, evict, rebuild on touch — and every read stays exact."""
        instance = random_instance(
            n=18, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=8
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        kernel = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            workers=2,
            max_resident_tiles=2,
        )
        kernel.materialize_all()
        assert kernel.storage_stats()["evictions"] > 0
        assert_matrices_equal(dense, kernel)


class TestMmapSpill:
    @pytest.mark.parametrize("use_numpy", BACKENDS)
    @pytest.mark.parametrize("dtype", [None, "float32"])
    def test_mmap_reads_exactly(self, use_numpy, dtype, tmp_path):
        """Row and scalar reads off mapped segment windows hold the
        same bytes an unbounded grid holds."""
        instance = random_instance(
            n=17, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        plain = tiled_kernel(instance, use_numpy, block_size=4, dtype=dtype)
        mapped = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            dtype=dtype,
            max_resident_tiles=2,
            spill_dir=str(tmp_path),
        )
        plain.materialize_all()
        mapped.materialize_all()
        for i in range(plain.n):
            assert list(mapped.copy_distance_row(i)) == list(
                plain.copy_distance_row(i)
            )
            for j in range(plain.n):
                assert mapped.distance_between(i, j) == plain.distance_between(
                    i, j
                )
        stats = mapped.storage_stats()
        assert stats["spills"] > 0
        assert stats["mmap_reads"] > 0
        assert stats["bytes_mapped"] > 0
        # The per-kernel segment file is the only spill artifact.
        assert any(p.name == "segment.bin" for p in tmp_path.rglob("*"))

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_mmap_full_consumers_stay_exact(self, use_numpy, tmp_path):
        """Whole-matrix consumers (row sums, to_lists) over a mapped
        grid equal the dense baseline float for float."""
        instance = random_instance(
            n=15, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=9
        )
        dense = ScoringKernel(instance, use_numpy=use_numpy)
        mapped = tiled_kernel(
            instance,
            use_numpy,
            block_size=4,
            max_resident_tiles=2,
            spill_dir=str(tmp_path),
        )
        mapped.materialize_all()
        assert_matrices_equal(dense, mapped)

    def test_dense_rejects_spill_dir(self, tmp_path):
        instance = random_instance(n=8, k=3, seed=1)
        with pytest.raises(KernelError, match="dense"):
            tiled_kernel(instance, False, storage="dense", spill_dir=str(tmp_path))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def _snapshot(seed, n=12):
    instance = random_instance(
        n=n, k=3, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=seed
    )
    kernel = ScoringKernel(instance, use_numpy=False, defer_distances=True)
    return kernel.provider, tuple(instance.answers())


class TestWarmPools:
    """Registry lifecycle.  Executors here never receive work (workers
    spawn lazily on first submit), so these run at thread speed."""

    def test_miss_then_hit_reuses_executor(self):
        registry = WarmPoolRegistry(max_pools=2, ttl=100.0, clock=FakeClock())
        provider, answers = _snapshot(seed=1)
        first = registry.acquire(provider, answers, 2)
        executor = first._executor
        first.close()
        second = registry.acquire(provider, answers, 2)
        assert second._executor is executor
        second.close()
        stats = registry.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["pools"] == 1 and stats["leased"] == 0
        registry.clear()

    def test_leased_pool_bypasses_to_cold(self):
        registry = WarmPoolRegistry(max_pools=2, ttl=100.0, clock=FakeClock())
        provider, answers = _snapshot(seed=2)
        first = registry.acquire(provider, answers, 2)
        second = registry.acquire(provider, answers, 2)
        assert second._executor is not first._executor
        assert registry.stats()["bypasses"] == 1
        second.close()  # cold builder: owns and shuts down its pool
        first.close()
        assert registry.stats()["leased"] == 0
        registry.clear()

    def test_lru_eviction_at_budget(self):
        registry = WarmPoolRegistry(max_pools=1, ttl=100.0, clock=FakeClock())
        for seed in (3, 4):
            provider, answers = _snapshot(seed=seed)
            registry.acquire(provider, answers, 2).close()
        stats = registry.stats()
        assert stats["evictions"] == 1 and stats["pools"] == 1
        registry.clear()

    def test_ttl_expires_idle_pools(self):
        clock = FakeClock()
        registry = WarmPoolRegistry(max_pools=4, ttl=60.0, clock=clock)
        provider, answers = _snapshot(seed=5)
        registry.acquire(provider, answers, 2).close()
        clock.advance(61.0)
        registry.reap()
        stats = registry.stats()
        assert stats["expirations"] == 1 and stats["pools"] == 0
        # The next acquire is a fresh miss, not a stale hit.
        registry.acquire(provider, answers, 2).close()
        assert registry.stats()["misses"] == 2
        registry.clear()

    def test_invalidate_drops_providers_pools(self):
        registry = WarmPoolRegistry(max_pools=4, ttl=100.0, clock=FakeClock())
        provider, answers = _snapshot(seed=6)
        other_provider, other_answers = _snapshot(seed=7)
        registry.acquire(provider, answers, 2).close()
        registry.acquire(other_provider, other_answers, 2).close()
        assert registry.invalidate(provider) == 1
        stats = registry.stats()
        assert stats["invalidations"] == 1 and stats["pools"] == 1
        registry.acquire(provider, answers, 2).close()
        assert registry.stats()["misses"] == 3
        registry.clear()

    def test_unpicklable_snapshot_returns_none(self):
        registry = WarmPoolRegistry(max_pools=2, ttl=100.0, clock=FakeClock())
        closed = closure_instance()
        kernel = ScoringKernel(closed, use_numpy=False)
        assert (
            registry.acquire(kernel.provider, tuple(closed.answers()), 2)
            is None
        )
        assert len(registry) == 0

    def test_apply_delta_invalidates_global_registry(self):
        registry = warm_pool_registry()
        registry.clear()
        instance = random_instance(
            n=16, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=11
        )
        kernel = tiled_kernel(
            instance, False, block_size=4, workers=2
        )
        try:
            kernel.materialize_all()
            assert len(registry) == 1
            rows = list(instance.answers())
            kernel.apply_delta(deleted=[rows[0]])
            assert len(registry) == 0
        finally:
            registry.clear()

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_warm_build_floats_equal_cold(self, use_numpy):
        """The second (warm) build holds exactly the floats of the first
        (cold) build and of a serial build — on both backends.  The
        NumPy backend builds serially, so it never touches the
        registry."""
        registry = warm_pool_registry()
        registry.clear()
        instance = random_instance(
            n=19, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=12
        )
        before = registry.stats()
        try:
            serial = tiled_kernel(instance, use_numpy, block_size=5)
            serial.materialize_all()
            cold = tiled_kernel(
                instance, use_numpy, block_size=5, workers=2
            )
            cold.materialize_all()
            warm = tiled_kernel(
                instance, use_numpy, block_size=5, workers=2
            )
            warm.materialize_all()
            after = registry.stats()
            traffic = {key: after[key] - before[key] for key in ("misses", "hits", "bypasses")}
            if use_numpy:
                assert traffic == {"misses": 0, "hits": 0, "bypasses": 0}
            else:
                assert traffic["misses"] >= 1 and traffic["hits"] >= 1
            assert_matrices_equal(serial, cold)
            assert_matrices_equal(serial, warm)
        finally:
            registry.clear()


class TestSketchPooled:
    @staticmethod
    def columns(sketch):
        c = sketch._c
        return c.tolist() if sketch.backend == "numpy" else c

    @pytest.mark.parametrize("use_numpy", BACKENDS)
    def test_pooled_sketch_equals_serial(self, use_numpy):
        instance = random_instance(
            n=23, k=4, kind=ObjectiveKind.MAX_SUM, lam=0.5, seed=2
        )
        serial = ScoringKernel(
            instance,
            use_numpy=use_numpy,
            config=EngineConfig(storage="sketched", sketch_columns=5, block_size=4),
        )
        pooled = ScoringKernel(
            instance,
            use_numpy=use_numpy,
            config=EngineConfig(storage="sketched", sketch_columns=5, block_size=4, workers=2),
        )
        a, b = serial.sketch(), pooled.sketch()
        assert b.landmark_positions == a.landmark_positions
        assert self.columns(b) == self.columns(a)
