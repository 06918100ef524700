"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload select-warm --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload (see
``perfbench/workloads.py`` and ``BENCHMARK.json``) runs in fresh
``worker.py`` processes with the repository's ``src`` on the path and
the environment pins in :data:`PINS`:

* ``--trace 0``: ``SETUP_PROBES`` processes that only set up, then one
  that sets up and measures for ``--seconds``.  Prints the end-to-end
  metrics; ``setup_s`` is the median set-up time over all of them.
* ``--trace 1``: one untraced and one traced measuring process.  Prints
  the per-layer metrics of the traced one, plus ``trace_overhead``,
  the traced run's loss of throughput against the untraced one.

Every run checks the served outputs and the ``/stats`` counter
invariants; a mismatch is a failed op and makes ``correct`` false.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with
provenance (seed, backend, load average around each process, pins and
every process's report), goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes that only set up, per untraced run (the measuring
#: process adds one more set-up sample).
SETUP_PROBES = 4
#: Wall-clock budget of one invocation; a process still running when it
#: is spent is killed and the run fails.
BUDGET_S = 170.0
#: Environment every benchmark process runs under.  One glibc malloc
#: arena (peak RSS is otherwise bimodal with ``asyncio.to_thread``);
#: freed memory kept in the heap instead of unmapped, so the n×n NumPy
#: temporaries of a selection do not page-fault on every allocation
#: (on a 2-vCPU VM those faults were ~30% of select-warm time and its
#: main source of run-to-run spread); single-threaded BLAS; fixed
#: string hashing.
PINS = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, deadline: float, **flags) -> dict:
    """Run one worker process; its report plus timing and load."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    for name, value in flags.items():
        command += [f"--{name}", str(value)]
    load_before = os.getloadavg()
    spawned = time.monotonic()
    done = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker {flags} exited with {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("ready_at") - spawned
    report["loadavg_before"] = load_before
    report["loadavg_after"] = os.getloadavg()
    return report


def run(args, spec: dict) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + BUDGET_S
    compileall.compile_dir(ROOT / "src", quiet=1)
    if not args.trace:
        probes = [spawn(args, deadline, mode="setup") for _ in range(SETUP_PROBES)]
        measured = spawn(args, deadline, mode="measure")
        reports = probes + [measured]
        figures = dict(measured["figures"])
        figures["setup_s"] = statistics.median(r["setup_s"] for r in reports)
        figures["peak_rss_mb"] = measured["peak_rss_mb"]
        wanted = spec["end_to_end"]
    else:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        plain = spawn(args, deadline, mode="measure")
        traced = spawn(args, deadline, mode="measure", trace=1, spans=spans)
        reports = [plain, traced]
        figures = dict(traced["figures"])
        figures["trace_overhead"] = (
            1.0 - figures["throughput_rps"] / plain["figures"]["throughput_rps"]
        )
        wanted = spec["per_layer"]
    metrics = {
        m["name"]: {"value": float(figures.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    return metrics, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
                   ROOT / "benchmarks" / "common.py"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.common import host_info, write_json
    from repro.engine import numpy_available

    OUT.mkdir(exist_ok=True)
    metrics, reports = run(args, spec)
    measured = [r for r in reports if "figures" in r]
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] + len(r["invariant_failures"]) for r in measured)
    for report in measured:
        for problem in report["failures"] + report["invariant_failures"]:
            print(f"FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}")
    write_json(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "numpy" if numpy_available() else "python",
        "host": host_info(pins=PINS),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "processes": reports,
    })
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
