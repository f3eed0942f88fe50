"""Benchmark of degreecalc: end-to-end figures, or per-layer figures when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/degreecalc``.  With
``--trace 0`` it prints throughput_per_s, latency_p50_ms, latency_tail_ms,
setup_s and peak_rss_mb; with ``--trace 1`` the per-layer metrics of
BENCHMARK.json.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata, which is also saved under ``.perfbench/runs/``.
The exit code is 0 only when every item's output matched its independent
answer.  README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import CACHE_STATE, ROOT, SRC, WORK, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
# Fresh interpreters whose set-up time is taken per run, half before the
# measured worker and half after it; setup_s is their median.
SETUP_SAMPLES = 10
# Any one worker process must end within this; the whole run within 180 s.
WORKER_TIMEOUT_S = 150


def start_worker(mode: str, workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; returns its report and set-up time.

    Set-up time runs from the launch to the first timed item, less the time
    the worker spent drawing raw inputs, which is harness work."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {mode} worker for {workload} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} worker for {workload} exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the host
    return report, report["ready"] - start - report["inputs_s"]


def setup_sample(args) -> tuple[float, float]:
    """One set-up time and the host-speed chunk timed right after it."""
    report, setup = start_worker("setup", args.workload, args.seed, args.seconds)
    return setup, report["hostspeed_chunk_s"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "degreecalc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def metadata(args, report: dict, setups: list[tuple]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "cache_state": CACHE_STATE,
        "setup_samples_s": [setup for setup, _ in setups],
        "setup_hostspeed_chunks_s": [chunk for _, chunk in setups],
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **report.get("meta", {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "degreecalc" / "__init__.py").is_file():
        print(f"perfbench: no degreecalc sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.trace:
        report, setup = start_worker("trace", args.workload, args.seed, args.seconds)
        setups = [(setup, None)]
        metrics = report["metrics"]
    else:
        setups = [setup_sample(args) for _ in range(SETUP_SAMPLES // 2)]
        report, _ = start_worker("measure", args.workload, args.seed, args.seconds)
        setups += [setup_sample(args) for _ in range(SETUP_SAMPLES - len(setups))]
        scale = hostspeed.scale([chunk for _, chunk in setups])
        metrics = dict(report["metrics"])
        metrics["setup_s"] = {"value": statistics.median(s for s, _ in setups) * scale, "unit": "s"}

    meta = metadata(args, report, setups)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    runs = WORK / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({"metadata": meta, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
