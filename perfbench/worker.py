"""One measured process of the benchmark.  run.py starts it; it is not a CLI.

    worker.py setup|measure|trace WORKLOAD SEED SECONDS

``setup`` builds the workload's inputs, reports when it was ready, and times
one chunk of the host-speed loop.  ``measure`` also runs a fixed number of
timed passes over the items, with a host-speed chunk before the first pass
and every half second of item time, and reports the end-to-end figures.
``trace`` runs one untraced pass, one pass with span wrappers and one with
hash counting, and reports the per-layer figures.  Every mode prints one JSON
object as its last line of output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

# Timed passes per measured run, at least.
MIN_PASSES = 3
# Launch timeout for one CLI process of a traced run; none comes near it.
CLI_TIMEOUT_S = 60
# Item time between two host-speed chunks of a measured run, at least.
CHUNK_EVERY_S = 0.5
# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.8, 99.5, 99, 98, 95, 90, 80, 75, 50)
# Commands that a traced run launches through cli_probe.py, to time the CLI
# layer.
CLI_PROBE_COMMANDS = (
    ["compute", "K(2;2) # K(2;3) # K(2;3) -> K(2;6)"],
    ["compute", "S(9) -> S(3)"],
    ["realize", "subset-sums", "--values=3,-5,7,11"],
)
# Pairs that a traced run computes after its traced pass, so that every rule
# and layer has a measured time on every workload.  Their share is fixed and
# small; the note in this directory lists it.
PROBE_PAIRS = (
    "S1 -> S1",
    "S(5) -> S(2)",
    "K(2;2) -> K(2;6)",
    "K(2;0) -> K(2;3)",
    "K(2;2) # K(2;3) -> K(2;6)",
    "K(2;3) # K(2;3) # K(2;9) -> K(2;3) # K(2;9)",
    "K(2;2) x K(2;3) -> K(2;4) x K(2;9)",
)


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten of n samples above it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    raise ValueError(f"{n} samples are too few for a tail with ten beyond it")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Checker:
    """Compares each item's output with the independent answer."""

    def __init__(self, workload, items):
        self.workload = workload
        self.expected = [digest(workload.expected(item)) for item in items]
        self.attempted = 0
        self.failed = 0

    def check(self, index, item, output) -> None:
        self.attempted += 1
        if digest(self.workload.observed(item, output)) != self.expected[index]:
            self.failed += 1


def timed_pass(workload, items, checker, samples=None, chunks=None) -> float:
    """One pass over the items; returns the summed item time.  With
    ``samples``, appends each item's time to its list; with ``chunks``, times
    a host-speed chunk between items every CHUNK_EVERY_S."""
    workload.start_pass()
    total = 0.0
    clock = time.perf_counter
    next_chunk = clock() + CHUNK_EVERY_S
    for i, item in enumerate(items):
        start = clock()
        output = workload.run(item)
        elapsed = clock() - start
        total += elapsed
        if samples is not None:
            samples[i].append(elapsed)
        checker.check(i, item, output)
        if chunks is not None and clock() >= next_chunk:
            chunks.append(hostspeed.chunk_seconds())
            next_chunk = clock() + CHUNK_EVERY_S
    return total


def pass_count(workload, seconds: float) -> int:
    """Passes of a measured run: a constant for the workload and run length,
    so that both commits of a comparison take the same number of samples."""
    return max(MIN_PASSES, round(seconds / workload.PASS_S))


def measure(workload, items, passes: int) -> dict:
    """Timed passes; an item's latency is its median time over the passes.

    On this host an item's time swings between a fast and a slow mode from
    one pass to the next, and a heavy item more than a light one, so the
    fastest pass of a heavy item depends on whether any pass met a fast
    stretch.  The median over passes and the median host-speed chunk both
    describe the run's typical state, and are scaled together."""
    checker = Checker(workload, items)
    samples = [[] for _ in items]
    pass_s = []
    chunks = [hostspeed.chunk_seconds()]
    for _ in range(passes):
        pass_s.append(timed_pass(workload, items, checker, samples, chunks))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = hostspeed.scale(chunks)
    latency = [statistics.median(times) for times in samples]
    p = tail_percentile(len(latency))
    raw = {
        "throughput_per_s": passes * len(items) / sum(pass_s),
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_tail_ms": 1e3 * percentile(latency, p),
    }
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            "throughput_per_s": {"value": raw["throughput_per_s"] / scale, "unit": "1/s"},
            "latency_p50_ms": {"value": raw["latency_p50_ms"] * scale, "unit": "ms"},
            "latency_tail_ms": {"value": raw["latency_tail_ms"] * scale, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        },
        "meta": {
            "items_per_pass": len(items),
            "passes": passes,
            "pass_item_seconds": pass_s,
            "hostspeed_chunks_s": chunks,
            "hostspeed_scale": scale,
            "unscaled": raw,
            "tail_percentile": p,
            "tail_samples_beyond": len(latency) - math.ceil(p / 100 * len(latency)),
        },
    }


# ---------------------------------------------------------------------------
# traced runs


def layer_probe(workload) -> None:
    dsl = sys.modules["degreecalc.dsl"]
    realiser = workload.realiser
    workload.engine.clear_cache()
    for pair in PROBE_PAIRS:
        m, n = (dsl.parse_expr(side) for side in pair.split("->"))
        workload.engine.degree_bounds(m, n)
        dsl.print_expr(m)
    cert = realiser.realise_geometric(realiser.Geometric((2, 3)))
    workload.verify.check_certificate(
        realiser.certificate_from_json(realiser.certificate_to_json(cert))
    )


def probe_launch(cli_args) -> dict:
    """One CLI process through cli_probe.py; its import and main times, and
    the wall time of the whole process."""
    report_path = workloads.WORK / f"cli_probe-{os.getpid()}.json"
    argv = [sys.executable, str(workloads.ROOT / "perfbench" / "cli_probe.py"), str(report_path), *cli_args]
    start = time.perf_counter()
    subprocess.run(
        argv,
        env=workloads.child_env(),
        cwd=workloads.ROOT,
        capture_output=True,
        check=True,
        timeout=CLI_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report_path.unlink()
    report["process_ms"] = 1e3 * wall
    return report


def trace(workload, items, spans_path) -> dict:
    import tracing

    checker = Checker(workload, items)
    tracer = tracing.Tracer()
    untraced = timed_pass(workload, items, checker)
    with tracer.installed():
        problems = tracing.coverage_problems(tracer, installed=True)
        traced = timed_pass(workload, items, checker)
        layer_probe(workload)
    problems += tracing.coverage_problems(tracer, installed=False)
    if problems:
        raise SystemExit(f"wrapper coverage broken: {problems}")
    hashes = tracing.HashCounter()
    with hashes.installed():
        timed_pass(workload, items, checker)
        layer_probe(workload)
    plain = [probe_launch(args) for args in CLI_PROBE_COMMANDS]
    tracer.write_spans(spans_path)
    cli = {
        key: statistics.median(r[key] for r in plain)
        for key in ("import_ms", "main_ms", "process_ms")
    }
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": tracing.layer_metrics(tracer.raw(), hashes.calls, cli, traced / untraced),
        "meta": {
            "items_per_pass": len(items),
            "spans": len(tracer.span_start),
            "missing_hooks": tracer.missing,
            "spans_file": str(spans_path.relative_to(workloads.ROOT)),
        },
    }


def main(argv) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = workloads.make(name, seed)
    items = workload.build()
    ready = time.perf_counter()
    if mode == "setup":
        result = {"hostspeed_chunk_s": hostspeed.chunk_seconds()}
    elif mode == "measure":
        result = measure(workload, items, pass_count(workload, seconds))
    else:
        spans_path = workloads.WORK / "spans" / f"{name}-seed{seed}.bin"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        result = trace(workload, items, spans_path)
    result["ready"] = ready
    result["inputs_s"] = workload.inputs_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
