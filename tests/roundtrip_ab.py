"""Compare two checkouts of degreecalc on the seed-201 geometric round trip.

Run it naming the parent checkout first::

    python tests/roundtrip_ab.py phases PARENT CHANGE [ROUNDS]
    python tests/roundtrip_ab.py fresh PARENT CHANGE [PAIRS]
    python tests/roundtrip_ab.py dedup CHECKOUT

The items are the 200 seed-201 inputs of perfbench's geometric_roundtrip.

``phases`` loads both packages in one process, each copied under its own
name into a temporary directory. It makes one warm-up pass with each, then
ROUNDS rounds (default 21) of one pass each, alternating which side runs
first. A pass empties the engine cache and every memo, as the benchmark's
``start_pass`` does, then realises, writes, decodes and checks each item
with GC paused. It prints each side's median pass and phase times (ms) and
the number of rounds the change won.

``fresh`` has CHANGE write the 200 certificate texts, then runs PAIRS pairs
(default 11) of new processes, alternating which side runs first. Each
process decodes every text once and prints its wall time, that time scaled
by perfbench's host-speed chunk (one chunk before the decode and one after),
and the ``cache_info()`` of each dsl memo.

``dedup`` realises the items once and counts the steps that
``engine._make_bound`` hands to its ``dict.fromkeys`` dedup, and how many
of them it drops.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 201


def _raws(checkout: Path) -> list:
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    return workloads.make("geometric_roundtrip", SEED).inputs()


def _one_pass(engine, realiser, verify, specs) -> list[float]:
    engine.clear_cache()
    ms = [0.0] * 4
    clock = time.perf_counter
    gc.disable()
    try:
        for spec in specs:
            t0 = clock()
            cert = realiser.realise_geometric(spec)
            t1 = clock()
            text = realiser.certificate_to_json(cert)
            t2 = clock()
            back = realiser.certificate_from_json(text)
            t3 = clock()
            if not verify.check_certificate(back).ok:
                raise SystemExit(f"certificate of {spec} does not check")
            for i, t in enumerate((t1 - t0, t2 - t1, t3 - t2, clock() - t3)):
                ms[i] += t * 1000
    finally:
        gc.enable()
    gc.collect()
    return ms


def phases(parent: Path, change: Path, rounds: int = 21) -> dict:
    raws = _raws(parent)
    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        for name, checkout in (("parent", parent), ("change", change)):
            shutil.copytree(checkout / "src" / "degreecalc", Path(tmp) / f"ab_{name}")
            engine, realiser, verify = (
                importlib.import_module(f"ab_{name}.{module}")
                for module in ("engine", "realiser", "verify")
            )
            specs = [realiser.Geometric(raw) for raw in raws]
            sides[name] = (engine, realiser, verify, specs)
            _one_pass(*sides[name])
        passes: dict[str, list[list[float]]] = {"parent": [], "change": []}
        for r in range(rounds):
            for name in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
                passes[name].append(_one_pass(*sides[name]))
    won = sum(sum(c) < sum(p) for p, c in zip(passes["parent"], passes["change"]))
    out: dict = {"rounds": rounds, "change_faster_rounds": won}
    for name, got in passes.items():
        out[name] = {
            "pass_ms_median": round(statistics.median(map(sum, got)), 1),
            "realise_write_decode_check_ms_median": [
                round(statistics.median(p[i] for p in got), 1) for i in range(4)
            ],
        }
    return out


_FRESH = r"""
import gc, json, sys, time
checkout, texts_path = sys.argv[1:]
sys.path[:0] = [checkout + "/src", checkout + "/perfbench"]
import hostspeed
from degreecalc import dsl, realiser
texts = json.load(open(texts_path, encoding="utf-8"))
gc.disable()
before = hostspeed.chunk_seconds()
start = time.perf_counter()
for text in texts:
    realiser.certificate_from_json(text)
ms = (time.perf_counter() - start) * 1000
chunk = (before + hostspeed.chunk_seconds()) / 2
memos = {name: getattr(dsl, name).cache_info()._asdict()
         for name in ("_box", "_parse_term", "_printed") if hasattr(dsl, name)}
print(json.dumps({"ms": ms, "scaled_ms": ms * hostspeed.NOMINAL_S / chunk, "memos": memos}))
"""


def fresh(parent: Path, change: Path, pairs: int = 11) -> dict:
    sys.path.insert(0, str(change / "src"))
    from degreecalc import realiser

    texts = [
        realiser.certificate_to_json(realiser.realise_geometric(realiser.Geometric(raw)))
        for raw in _raws(change)
    ]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "texts.json"
        path.write_text(json.dumps(texts), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        for i in range(pairs):
            for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                checkout = parent if name == "parent" else change
                out = subprocess.run(
                    [sys.executable, "-c", _FRESH, str(checkout), str(path)],
                    env=env, capture_output=True, text=True, check=True, timeout=600,
                ).stdout
                runs[name].append(json.loads(out))
    won = sum(c["scaled_ms"] < p["scaled_ms"] for p, c in zip(runs["parent"], runs["change"]))
    out: dict = {"pairs": pairs, "change_lower_scaled": won}
    for name, got in runs.items():
        out[name] = {
            key: [round(q, 1) for q in statistics.quantiles([r[key] for r in got], n=4)]
            for key in ("ms", "scaled_ms")
        }
        out[name]["memos"] = got[0]["memos"]
    return out


def dedup(checkout: Path) -> dict:
    raws = _raws(checkout)
    sys.path.insert(0, str(checkout / "src"))
    from degreecalc import engine, realiser

    counts = {"fed": 0, "dropped": 0}
    make = engine._make_bound

    def counted(lower, upper, trace, distinct=False):
        bound = make(lower, upper, trace, distinct)
        if not distinct and len(trace) > 1:
            counts["fed"] += len(trace)
            counts["dropped"] += len(trace) - len(bound.trace)
        return bound

    engine._make_bound = counted
    engine.clear_cache()
    for raw in raws:
        realiser.realise_geometric(realiser.Geometric(raw))
    return counts


def main(argv: list[str]) -> None:
    mode, *args = argv
    paths = [Path(a).resolve() for a in args if not a.isdigit()]
    counts = [int(a) for a in args if a.isdigit()]
    print(json.dumps({"phases": phases, "fresh": fresh, "dedup": dedup}[mode](*paths, *counts)))


if __name__ == "__main__":
    main(sys.argv[1:])
