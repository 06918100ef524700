"""One fresh benchmark process: set up a workload and, unless only
set-up is timed, drive its measured phase, check the outputs and print
one JSON line of figures.

    python3 perfbench/worker.py --workload select-warm --seed 1 \
        --seconds 20 --mode measure --trace 0

``run.py`` starts this with the repository's ``src`` on ``PYTHONPATH``
and the environment pins it records; run alone it needs the same.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import statistics
import sys
import time

from tracing import Recorder, summarize
from workloads import WORKLOADS

#: Completions per throughput window on the two-client workload.
HTTP_WINDOW = 100


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 200 samples p95 leaves ten above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def window_rates(done_at: list[float], size: int) -> list[float]:
    """Completions per second over consecutive runs of ``size``
    completions, starting from the start of the measured phase."""
    points = [0.0] + sorted(done_at)
    return [
        size / (points[j + size] - points[j])
        for j in range(0, len(points) - size, size)
        if points[j + size] > points[j]
    ]


def counter_failures(stats: dict, diversify_ok: int) -> list[str]:
    """The invariants ``/stats`` must satisfy at the end of a run."""
    failures = []
    for tenant, block in stats["tenants"].items():
        cache = block["kernel_cache"]
        if cache["lookups"] != cache["hits"] + cache["misses"] + cache["patches"]:
            failures.append(f"{tenant}: kernel lookups != hits + misses + patches: {cache}")
        if not 0 <= cache["stale_rebuilds"] <= cache["misses"]:
            failures.append(f"{tenant}: stale_rebuilds outside [0, misses]: {cache}")
    requests = stats["requests"]
    served = requests["computed"] + requests["coalesced"] + stats["result_cache"]["hits"]
    if served != diversify_ok:
        failures.append(
            f"computed + coalesced + cached = {served} != {diversify_ok} "
            "diversify requests served"
        )
    return failures


def traced_counter_failures(stats: dict, spans: list[list]) -> list[str]:
    """Counters against the spans that saw the same events: every
    ``kernel_for`` call is one lookup with one outcome, and every
    computed diversify request is one hand-off to a worker thread."""
    cache = stats["tenants"]["default"]["kernel_cache"]
    outcomes = {"hit": 0, "patch": 0, "miss": 0}
    for record in spans:
        if record[1] == "engine.kernel_lookup":
            outcome = record[6]["outcome"]
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    counted = {"hit": cache["hits"], "patch": cache["patches"], "miss": cache["misses"]}
    failures = []
    if outcomes != counted:
        failures.append(f"kernel_for spans {outcomes} != /stats {counted}")
    diversify = {r[0] for r in spans if r[1] == "service.core.diversify"}
    computed = sum(1 for r in spans
                   if r[1] == "service.core.compute" and r[2] in diversify)
    if computed != stats["requests"]["computed"]:
        failures.append(f"{computed} diversify hand-offs != "
                        f"{stats['requests']['computed']} computed")
    return failures


def end_to_end(workload, out, seconds_measured: float) -> dict:
    rates = window_rates(out.done_at, getattr(workload, "WINDOW", HTTP_WINDOW))
    writes = [ms for ms, kind in zip(out.latency_ms, out.kinds) if kind == "write"]
    return {
        "throughput_rps": statistics.median(rates),
        "throughput_raw_rps": len(out.done_at) / seconds_measured,
        "throughput_window_rates": rates,
        "latency_p50_ms": percentile(out.latency_ms, 0.50),
        "latency_p95_ms": percentile(out.latency_ms, 0.95),
        "latency_samples": len(out.latency_ms),
        "objective_mean": statistics.fmean(out.objective),
        "objective_samples": len(out.objective),
        "write_p50_ms": percentile(writes, 0.50) if writes else 0.0,
    }


def traffic(workload, out, stats: dict) -> dict:
    """Shares of traffic with the properties a later change may use
    (reported by every run, traced or not)."""
    retrieval = stats["tenants"].get("default", {}).get("retrieval", {})
    pool_hits = retrieval.get("pool_hits", 0) - getattr(workload, "check_pool_hits", 0)
    pool_lookups = pool_hits + retrieval.get("pool_misses", 0)
    reused = stats["requests"]["coalesced"] + stats["result_cache"]["hits"]
    return {
        "traffic.write_share": out.kinds.count("write") / len(out.kinds),
        "traffic.repeat_query_share": getattr(workload, "repeats", 0) / out.attempted,
        "retrieval.pool_hit_ratio": pool_hits / pool_lookups if pool_lookups else 0.0,
        "service.core.reuse_ratio": reused / max(1, workload.diversify_ok),
    }


def layer_figures(workload, out, stats: dict, recorder: Recorder) -> dict:
    """The per-layer metrics of one traced run (absent, so reported as
    0, where a layer is not reached on this workload)."""
    measured_ms = sum(out.latency_ms)
    summary = summarize(recorder.spans, measured_ms)
    tenant = stats["tenants"]["default"]
    cache = tenant["kernel_cache"]
    figures = {
        "engine.kernel_hit_ratio": cache["hits"] / max(1, cache["lookups"]),
        "engine.kernel_misses": cache["misses"],
        "engine.kernel_patches": cache["patches"],
        "engine.kernel_stale_rebuilds": cache["stale_rebuilds"],
        "engine.storage.resident_mb": tenant["storage"]["resident_bytes"] / 2**20,
        "error_rate": out.failed / out.attempted,
    }
    figures.update(summary["layers"])
    for name, calls in summary["calls"].items():
        if name.startswith("algorithms.select."):
            algo = name.removeprefix("algorithms.select.")
            figures[f"algorithms.select_calls.{algo}"] = calls
            figures[f"algorithms.select_ms.{algo}"] = figures.pop(f"{name}_ms")
            figures[f"algorithms.select_share.{algo}"] = figures.pop(f"{name}.share")
    figures["traffic.greedy_max_sum_time_share"] = figures.get(
        "algorithms.select_share.greedy_max_sum", 0.0)
    attrs = summary["attrs"]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    for stage in ("bm25", "ann", "fusion"):
        figures[f"retrieval.{stage}_ms"] = 1000.0 * mean(
            [t[stage] for t in attrs["retrieval.cut"] if stage in t])
    figures["retrieval.index_build_s"] = mean(
        [(r[5] - r[4]) / 1e9 for r in recorder.spans if r[1] == "retrieval.index_build"])
    figures["engine.kernel.build_rows"] = mean(
        [a["rows"] for a in attrs["engine.kernel.build"]])
    figures["algorithms.repair_rerun_ratio"] = mean(
        [a["reran"] for a in attrs["algorithms.repair"]])
    http = [
        latency - server
        for latency, server, kind in zip(out.latency_ms, out.server_ms, out.kinds)
        if server is not None
    ]
    figures["service.http.overhead_ms"] = mean(http)
    figures["service.http.overhead.share"] = sum(http) / measured_ms
    return figures


async def drive(args) -> dict:
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    workload = WORKLOADS[args.workload](args.seed)
    workload.recorder = recorder
    try:
        await workload.setup()
        report = {"ready_at": time.monotonic()}
        if args.mode == "setup":
            return report
        if recorder is not None:
            recorder.phase = "measure"
        started = time.perf_counter()
        out = await workload.measure(args.seconds)
        measured = workload.clock()
        report["wall_s"] = time.perf_counter() - started
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced_failures = []
        if recorder is not None:
            traced_failures = traced_counter_failures(await workload.stats(),
                                                      recorder.spans)
            recorder.enabled = False
        await workload.check()
        stats = await workload.stats()
        failures = counter_failures(stats, workload.diversify_ok) + traced_failures
        figures = end_to_end(workload, out, measured)
        figures.update(traffic(workload, out, stats))
        if recorder is not None:
            figures.update(layer_figures(workload, out, stats, recorder))
            if args.spans:
                recorder.write(args.spans)
        report.update(
            figures=figures,
            attempted=out.attempted,
            failed=out.failed,
            failures=out.failures,
            invariant_failures=failures,
            counters={"requests": stats["requests"],
                      "result_cache": stats["result_cache"],
                      "tenants": stats["tenants"]},
        )
        return report
    finally:
        if recorder is not None:
            recorder.uninstall()
        await workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), default="measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args(argv)
    report = asyncio.run(drive(args))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
