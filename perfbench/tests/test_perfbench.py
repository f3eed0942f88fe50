"""Self-checks of the benchmark harness.

* Wrapper coverage: while a Tracer is installed, no degreecalc namespace holds
  an original wrapped function; after it is removed, none holds a wrapper.
* Traced counts repeat exactly between two processes for one seed, on every
  workload.
* The independent answers agree with brute force, and a tampered output is
  counted as failed.
* Outside a checkout with sources, run.py exits non-zero without a result.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["interval_sweep", "long_sums", "geometric_roundtrip"]
# counts that must repeat exactly between two traced runs of one seed, with
# every "*.calls" count
EXACT = ("engine.compute.calls", "dsl.parse.chars", "verify.oracle.tuples")


def traced_run(name: str, count: int, seed: int = 3):
    """A traced pass plus a hash-counting pass over the first ``count`` items."""
    workload = workloads.make(name, seed)
    items = workload.build()[:count]
    checker = worker.Checker(workload, items)
    tracer = tracing.Tracer()
    with tracer.installed():
        installed = tracing.coverage_problems(tracer, installed=True)
        held = {
            module: getattr(sys.modules[module], "normalize")
            for module in (
                "degreecalc",
                "degreecalc.manifold",
                "degreecalc.engine",
                "degreecalc.realiser",
                "degreecalc.verify",
                "degreecalc.dsl",
            )
        }
        worker.timed_pass(workload, items, checker)
        worker.layer_probe(workload)
    removed = tracing.coverage_problems(tracer, installed=False)
    hashes = tracing.HashCounter()
    with hashes.installed():
        worker.timed_pass(workload, items, checker)
        worker.layer_probe(workload)
    return {
        "installed": installed,
        "removed": removed,
        "held": held,
        "missing": list(tracer.missing),
        "counts": dict(tracer.counts),
        "hash_calls": hashes.calls,
        "failed": checker.failed,
        "attempted": checker.attempted,
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrappers_cover_every_namespace(name):
    run = traced_run(name, 25)
    assert run["installed"] == []
    assert run["removed"] == []
    assert run["missing"] == []
    assert all(getattr(f, "__wrapped__", None) is not None for f in run["held"].values())
    assert run["attempted"] == 50 and run["failed"] == 0


def traced_counts_in_new_process(name: str, count: int) -> dict:
    """``traced_run`` in a fresh interpreter started like the benchmark's workers."""
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; import test_perfbench as t; "
        "run = t.traced_run(sys.argv[3], int(sys.argv[4])); "
        "print(json.dumps({**run['counts'], 'manifold.hash_calls': run['hash_calls']}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH / "tests"), str(BENCH), name, str(count)],
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first, second = (traced_counts_in_new_process(name, 20) for _ in range(2))
    keys = [k for k in first if k.endswith(".calls") or k in EXACT or k == "manifold.hash_calls"]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert first["manifold.hash_calls"] > 0 and first["dsl.parse.chars"] > 0


def test_answers_match_brute_force():
    d, n, nprime = (2, 5), (3, 2), (1, 2)
    brute = {
        sum(m * di for m, di in zip(ms, d))
        for ms in itertools.product(*(range(-b, a + 1) for a, b in zip(n, nprime)))
    }
    assert answers.family_set(d, n, nprime) == tuple(sorted(brute))
    values = (4, -3, 7, -1)
    sums = {sum(s) for r in range(5) for s in itertools.combinations(values, r)}
    assert answers.subset_sums(values) == tuple(sorted(sums))
    assert answers.subset_products((2, 3, 3)) == (0, 1, 2, 3, 6, 9, 18)
    assert answers.interval_union([(-1, 1), (4, 6)]) == (-1, 0, 1, 4, 5, 6)


def _drop_one(target):
    elements = list(target.elements)
    elements.remove(next(x for x in elements if x != 0))
    return dataclasses.replace(target, elements=tuple(elements))


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_target_counts_as_failed(name):
    workload = workloads.make(name, 5)
    expected = workload.expected if name == "long_sums" else lambda item: workload.expected(item)[0]
    items = [item for item in workload.build() if len(expected(item)) > 2][:1]
    checker = worker.Checker(workload, items)
    output = workload.run(items[0])
    checker.check(0, items[0], output)
    assert checker.failed == 0
    if name == "long_sums":
        bad = dataclasses.replace(output, target=_drop_one(output.target))
    else:
        cert, *rest = output
        bad = (dataclasses.replace(cert, target=_drop_one(cert.target)), *rest)
    checker.check(0, items[0], bad)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_sums", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = {"import_ms": 1.0, "main_ms": 1.0, "process_ms": 1.0}
    layer = tracing.layer_metrics({"counts": {}, "self_s": {}}, 0, cli, 1.0)
    assert [(k, v["unit"]) for k, v in layer.items()] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workload = workloads.make("long_sums", 1)
    items = workload.build()[:20]
    measured = worker.measure(workload, items, passes=1)["metrics"]
    measured["setup_s"] = {"unit": "s"}
    assert {k: v["unit"] for k, v in measured.items()} == end_to_end
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
