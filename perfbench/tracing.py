"""Spans and counters at degreecalc's module boundaries, installed from outside.

A traced run replaces the functions through which one module of degreecalc
calls another with wrappers from this file; the package's source is not
edited.  Modules import names directly (``from .manifold import normalize``
in engine, realiser, verify and dsl), so a wrapper is installed under every
name, in every loaded ``degreecalc`` module, that holds the original function
object.  A name that is not replaced would go uncounted without any sign;
``coverage_problems`` finds such names.

Each wrapper counts its call and records a span (name, start, end, parent) in
flat arrays kept in memory.  A call whose innermost open span has the same
span name is counted but opens no span of its own: recursion in ``normalize``
and intset calling itself fold into the outer span.  A span's self time is its
duration minus the durations of its child spans, which on one thread never
overlap.

Hashing of expression nodes is counted by ``HashCounter`` in a run of its
own, because counting slows every dictionary lookup keyed by an expression.
"""

from __future__ import annotations

import math
import struct
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "degreecalc"

ENGINE_RULES = (
    "circle_pair",
    "surface_pair",
    "bundle_pair",
    "source_conn_sum",
    "target_conn_sum",
    "product_pair",
    "undetermined",
)


def _finite_size(result) -> int:
    elements = getattr(result, "elements", None)
    return len(elements) if isinstance(elements, tuple) else 0


def _intset_out(tracer, args, result, nested):
    if not nested:
        tracer.counts["intset.elements_out"] += _finite_size(result)


def _fold_out(tracer, args, result, nested):
    tracer.counts["engine.fold.elements_out"] += _finite_size(result)


def _trace_entries(tracer, args, result, nested):
    tracer.counts["engine.trace_entries"] += len(result.trace)


def _parse_chars(tracer, args, result, nested):
    tracer.counts["dsl.parse.chars"] += len(args[0])


def _block_attempt(tracer, args, result, nested):
    # verify rebuilds blocks too; only the realiser's prime search is a retry
    if tracer.innermost().startswith("realiser."):
        tracer.counts["realiser.block_attempts"] += 1


def _mismatches(tracer, args, result, nested):
    tracer.counts["verify.mismatches"] += len(result.mismatches)


def _oracle_tuples(count):
    def hook(tracer, args, result, nested):
        tracer.counts["verify.oracle.tuples"] += count(*args)

    return hook


# (module, attribute, span name, call counter or None, hook or None)
FUNCTIONS = [
    *(
        ("degreecalc.intset", attr, "intset", "intset.calls", _intset_out)
        for attr in (
            "sumset",
            "product_set",
            "intersect",
            "union",
            "negate",
            "interval",
            "equals",
            "to_jsonable",
            "from_jsonable",
        )
    ),
    ("degreecalc.manifold", "normalize", "manifold.normalize", "manifold.normalize.calls", None),
    ("degreecalc.manifold", "summand_multiset", "manifold.summand_multiset", None, None),
    ("degreecalc.manifold", "is_pi2_trivial", "manifold.predicates", None, None),
    ("degreecalc.manifold", "is_product_domination_free", "manifold.predicates", None, None),
    ("degreecalc.dsl", "parse_expr", "dsl.parse", "dsl.parse.calls", _parse_chars),
    ("degreecalc.dsl", "print_expr", "dsl.print", "dsl.print.calls", None),
    ("degreecalc.engine", "degree_bounds", "engine.degree_bounds", None, None),
    ("degreecalc.engine", "clear_cache", "engine.clear_cache", "engine.clear_cache.calls", None),
    ("degreecalc.engine", "_bounds", "engine.bounds", "engine.bounds.calls", None),
    ("degreecalc.engine", "_compute", "engine.compute", "engine.compute.calls", _trace_entries),
    *(
        ("degreecalc.engine", "_" + rule, f"engine.rule.{rule}", f"engine.rule.{rule}.calls", None)
        for rule in ENGINE_RULES
    ),
    ("degreecalc.engine", "_fold_sumsets", "engine.fold", "engine.fold.calls", _fold_out),
    ("degreecalc.engine", "_fold_product_sets", "engine.fold", "engine.fold.calls", _fold_out),
    ("degreecalc.engine", "_chain_search", "engine.chain_search", None, None),
    ("degreecalc.engine", "_kill_summand", "engine.kill_summand", None, None),
    ("degreecalc.engine", "trace_to_jsonable", "engine.serialize", None, None),
    ("degreecalc.engine", "bound_to_jsonable", "engine.serialize", None, None),
    *(
        ("degreecalc.realiser", attr, "realiser.realise", "realiser.calls", None)
        for attr in (
            "realise_sumset",
            "realise_arith_intervals",
            "realise_subset_sums",
            "realise_geometric",
        )
    ),
    ("degreecalc.realiser", "_certified", "realiser.certified", None, None),
    ("degreecalc.realiser", "_geometric_blocks", "realiser.blocks", None, _block_attempt),
    ("degreecalc.realiser", "certificate_to_json", "realiser.to_json", None, None),
    ("degreecalc.realiser", "certificate_to_jsonable", "realiser.to_json", None, None),
    ("degreecalc.realiser", "certificate_from_json", "realiser.from_json", None, None),
    ("degreecalc.realiser", "certificate_from_jsonable", "realiser.from_json", None, None),
    ("degreecalc.verify", "check_certificate", "verify.check", "verify.check.calls", _mismatches),
    ("degreecalc.verify", "oracle_set", "verify.oracle", None, None),
    (
        "degreecalc.verify",
        "brute_sumset",
        "verify.oracle",
        None,
        _oracle_tuples(lambda d, n, nprime, *rest: math.prod(a + b + 1 for a, b in zip(n, nprime))),
    ),
    ("degreecalc.verify", "brute_subset_sums", "verify.oracle", None, _oracle_tuples(lambda d, *rest: 2 ** len(d))),
    (
        "degreecalc.verify",
        "brute_subset_products",
        "verify.oracle",
        None,
        _oracle_tuples(lambda d, *rest: 2 ** len(d) - 1),
    ),
    (
        "degreecalc.verify",
        "interval_union",
        "verify.oracle",
        None,
        _oracle_tuples(lambda bounds: sum(c - b + 1 for b, c in bounds)),
    ),
    ("degreecalc.verify", "_recheck_entry", "verify.recheck", "verify.recheck.entries", None),
    ("degreecalc.verify", "_check_params", "verify.params", None, None),
]

# Expression node classes whose __hash__ HashCounter counts.
NODE_CLASSES = ("Circle", "Surface", "CircleBundle", "ConnSum", "Product")

COUNTERS = sorted(
    {spec[3] for spec in FUNCTIONS if spec[3]}
    | {
        "intset.elements_out",
        "engine.fold.elements_out",
        "engine.trace_entries",
        "engine.cache_full_clears",
        "dsl.parse.chars",
        "realiser.block_attempts",
        "verify.mismatches",
        "verify.oracle.tuples",
    }
)


def package_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class _CountingCache(dict):
    """The engine's result cache, counting every clear()."""

    def __init__(self, tracer, contents):
        super().__init__(contents)
        self.tracer = tracer

    def clear(self):
        self.tracer.counts["engine.cache_full_clears"] += 1
        super().clear()


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self.done: list[tuple[object, str, object]] = []

    def set(self, holder, attr, value):
        self.done.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Install ``replacement`` under every module-level name holding ``original``."""
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self):
        while self.done:
            holder, attr, value = self.done.pop()
            setattr(holder, attr, value)


class Tracer:
    """Spans and counts for one traced run; install with ``installed()``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {key: 0 for key in COUNTERS}
        self.wrapped: list[tuple[object, object]] = []  # (original, wrapper)
        self.missing: list[str] = []  # hooks whose target no longer exists
        self._patches = _Patches()

    def innermost(self) -> str:
        return self.names[self.span_name[self.stack[-1]]] if self.stack else ""

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str, counter, hook):
        name_id = self._name_id(span)
        counts = self.counts
        stack = self.stack
        names, parents, starts, ends = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack and names[stack[-1]] == name_id:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result, True)
                return result
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if hook is not None:
                hook(tracer, args, result, False)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        self.wrapped.append((fn, wrapper))
        return wrapper

    def install(self) -> None:
        patches = self._patches
        for module_name, attr, span, counter, hook in FUNCTIONS:
            module = sys.modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            patches.replace_everywhere(original, self.wrap(original, span, counter, hook))
        intset = sys.modules["degreecalc.intset"]
        finite = intset.DegreeSet.__dict__["finite"].__func__
        wrapper = self.wrap(finite, "intset", "intset.calls", _intset_out)
        patches.set(intset.DegreeSet, "finite", classmethod(wrapper))
        engine = sys.modules["degreecalc.engine"]
        if isinstance(getattr(engine, "_CACHE", None), dict):
            patches.set(engine, "_CACHE", _CountingCache(self, engine._CACHE))
        else:
            self.missing.append("degreecalc.engine._CACHE")
        for name in self.missing:
            print(f"perfbench: no hook for {name}; its calls go uncounted", file=sys.stderr)

    def uninstall(self) -> None:
        self._patches.undo()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' durations."""
        n = len(self.span_start)
        child = [0.0] * n
        own = [0.0] * len(self.names)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        for i in range(n - 1, -1, -1):
            dur = ends[i] - starts[i]
            own[names[i]] += dur - child[i]
            if parents[i] >= 0:
                child[parents[i]] += dur
        return {name: own[i] for i, name in enumerate(self.names)}

    def raw(self) -> dict:
        """Counts, self time per span name, and the number of spans."""
        return {"counts": dict(self.counts), "self_s": self.self_seconds(), "spans": len(self.span_start)}

    def write_spans(self, path: Path) -> None:
        """Write every span: a header line of span names, then packed records
        of (name id, parent index, start, end) as native ``<iidd``."""
        record = struct.Struct("<iidd")
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            for i in range(len(self.span_start)):
                fh.write(
                    record.pack(self.span_name[i], self.span_parent[i], self.span_start[i], self.span_end[i])
                )


class HashCounter:
    """Counts ``__hash__`` on expression nodes, recursive calls included."""

    def __init__(self):
        self.calls = 0
        self._patches = _Patches()

    def install(self) -> None:
        manifold = sys.modules["degreecalc.manifold"]
        for name in NODE_CLASSES:
            cls = getattr(manifold, name)
            original = cls.__hash__

            def counted(node, _original=original):
                self.calls += 1
                return _original(node)

            self._patches.set(cls, "__hash__", counted)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self._patches.undo()


def coverage_problems(tracer: Tracer, installed: bool) -> list[str]:
    """Names in degreecalc modules that hold the wrong object.

    With the tracer installed, no module may still hold an original wrapped
    function; uninstalled, none may hold a wrapper.
    """
    bad = []
    for original, wrapper in tracer.wrapped:
        stale = original if installed else wrapper
        for module in package_modules():
            for attr, value in vars(module).items():
                if value is stale:
                    bad.append(f"{module.__name__}.{attr}")
    intset = sys.modules["degreecalc.intset"]
    finite = intset.DegreeSet.__dict__["finite"].__func__
    if installed != (getattr(finite, "__wrapped__", None) is not None):
        bad.append("degreecalc.intset.DegreeSet.finite")
    return sorted(set(bad))


def layer_metrics(raw: dict, hash_calls: int, cli: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics, named as in BENCHMARK.json, with units."""
    counts = raw["counts"]
    self_s = raw["self_s"]

    def c(key):
        return counts.get(key, 0)

    def ms(prefix):
        return 1e3 * sum(
            v for k, v in self_s.items() if k == prefix or k.startswith(prefix + ".")
        )

    bounds = c("engine.bounds.calls")
    values = {
        "manifold.hash_calls": (hash_calls, "count"),
        "manifold.normalize.calls": (c("manifold.normalize.calls"), "count"),
        "manifold.normalize.self_ms": (ms("manifold.normalize"), "ms"),
        "manifold.self_ms": (ms("manifold"), "ms"),
        "engine.bounds.calls": (bounds, "count"),
        "engine.compute.calls": (c("engine.compute.calls"), "count"),
        "engine.cache_hit_ratio": (
            1 - c("engine.compute.calls") / bounds if bounds else 0.0,
            "ratio",
        ),
        "engine.cache_clears": (
            c("engine.cache_full_clears") - c("engine.clear_cache.calls"),
            "count",
        ),
        "engine.self_ms": (ms("engine"), "ms"),
        "engine.trace_entries": (c("engine.trace_entries"), "count"),
    }
    for rule in ENGINE_RULES:
        values[f"engine.rule.{rule}.calls"] = (c(f"engine.rule.{rule}.calls"), "count")
        values[f"engine.rule.{rule}.self_ms"] = (ms(f"engine.rule.{rule}"), "ms")
    values.update(
        {
            "engine.chain_search.self_ms": (ms("engine.chain_search"), "ms"),
            "engine.fold.calls": (c("engine.fold.calls"), "count"),
            "engine.fold.self_ms": (ms("engine.fold"), "ms"),
            "engine.fold.elements_out": (c("engine.fold.elements_out"), "count"),
            "intset.calls": (c("intset.calls"), "count"),
            "intset.self_ms": (ms("intset"), "ms"),
            "intset.elements_out": (c("intset.elements_out"), "count"),
            "dsl.parse.calls": (c("dsl.parse.calls"), "count"),
            "dsl.parse.chars": (c("dsl.parse.chars"), "count"),
            "dsl.print.calls": (c("dsl.print.calls"), "count"),
            "dsl.self_ms": (ms("dsl"), "ms"),
            "realiser.calls": (c("realiser.calls"), "count"),
            "realiser.self_ms": (ms("realiser"), "ms"),
            "realiser.block_attempts": (c("realiser.block_attempts"), "count"),
            "verify.check.calls": (c("verify.check.calls"), "count"),
            "verify.self_ms": (ms("verify"), "ms"),
            "verify.oracle.self_ms": (ms("verify.oracle"), "ms"),
            "verify.oracle.tuples": (c("verify.oracle.tuples"), "count"),
            "verify.recheck.entries": (c("verify.recheck.entries"), "count"),
            "verify.recheck.self_ms": (ms("verify.recheck"), "ms"),
            "verify.mismatches": (c("verify.mismatches"), "count"),
            "cli.import_ms": (cli["import_ms"], "ms"),
            "cli.main_ms": (cli["main_ms"], "ms"),
            "cli.process_ms": (cli["process_ms"], "ms"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
