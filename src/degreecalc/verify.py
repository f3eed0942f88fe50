"""Independent brute-force oracles and the certificate checker.

The oracles enumerate the defining formulas of the realisable families
directly -- tuples of multiplicities, subsets, subset products -- without
calling the calculator or the set algebra's sum/product operations, so they
can serve as ground truth against both.  Enumeration sizes are capped; the
cap is configuration (argument or ``DEGREECALC_ENUM_CAP``), and exceeding it
is an explicit error, never a silent truncation.

:func:`check_certificate` accepts a certificate exactly when (a) the
calculator reproduces its target from (M, N), (b) the family oracle
reproduces its target from the spec, and (c) the recorded derivation equals
the calculator's trace for (M, N) step for step, and that trace's steps
re-validate: closed forms for bundle pairs, summand containment for pinches
and covering lifts, second homotopy groups for connected-sum sums, and the
domination-freeness and kill-summand conditions for product steps.  The
recorded free choices must be admissible -- a base genus g >= 2 and, for the
geometric family, one prime per block, strictly ascending and above every
d -- and M, N and every params key must then equal the realiser's
construction for the spec and those choices, params values in type too.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import product as iter_product, zip_longest
from typing import Optional, Sequence

from . import engine, intset
from .dsl import print_expr
from .engine import RuleApplication, SetBound, degree_bounds
from .intset import ZERO_ONLY, DegreeSet
from .manifold import (
    CircleBundle,
    UnsupportedExpression,
    is_pi2_trivial,
    is_product_domination_free,
    normalize,  # held by perfbench/tests (traced_run)
    summand_multiset,
)
from .realiser import (
    ArithIntervals,
    Certificate,
    Geometric,
    InvalidSpec,
    MalformedCertificate,  # re-exported; the certificate decoder raises it
    SubsetSums,
    SumsetFamily,
    _block_values,
    _geometric_construction,
    _is_prime,
    _sumset_construction,
)

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "DEGREECALC_ENUM_CAP"


class EnumerationTooLarge(ValueError):
    """The requested enumeration exceeds the configured cap."""


class InvalidEnumCap(ValueError):
    """The enumeration cap in the environment is not an integer."""


def _resolve_cap(enum_cap: Optional[int]) -> int:
    if enum_cap is not None:
        return enum_cap
    raw = os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP)
    try:
        return int(raw)
    except ValueError:
        raise InvalidEnumCap(f"{ENUM_CAP_ENV}={raw!r} is not an integer") from None


def brute_sumset(
    d: Sequence[int],
    n: Sequence[int],
    nprime: Sequence[int],
    enum_cap: Optional[int] = None,
) -> DegreeSet:
    """Enumerate {sum m_i d_i | -n'_i <= m_i <= n_i} tuple by tuple."""
    if not (len(d) == len(n) == len(nprime)):
        raise ValueError("d, n, nprime must have equal lengths")
    if len(d) == 0:
        raise ValueError("need at least one term")
    if any(x <= 0 for x in d):
        raise ValueError("family values d_i must be positive")
    if any(x < 0 for x in n) or any(x < 0 for x in nprime):
        raise ValueError("multiplicities must be >= 0")
    cap = _resolve_cap(enum_cap)
    count = math.prod(ni + npi + 1 for ni, npi in zip(n, nprime))
    if count > cap:
        raise EnumerationTooLarge(f"{count} tuples exceed the cap of {cap}")
    ranges = [range(-npi, ni + 1) for ni, npi in zip(n, nprime)]
    sums = {sum(m * di for m, di in zip(tup, d)) for tup in iter_product(*ranges)}
    return DegreeSet.finite(sums)


def brute_subset_sums(d: Sequence[int], enum_cap: Optional[int] = None) -> DegreeSet:
    """Enumerate {sum over S of d_j | S a subset of the index set}."""
    cap = _resolve_cap(enum_cap)
    if len(d) > 25 or 2 ** len(d) > cap:
        raise EnumerationTooLarge(f"2^{len(d)} subsets exceed the cap")
    sums = {sum(x for i, x in enumerate(d) if mask >> i & 1) for mask in range(1 << len(d))}
    return DegreeSet.finite(sums)


def brute_subset_products(d: Sequence[int], enum_cap: Optional[int] = None) -> DegreeSet:
    """Enumerate {0, 1} together with products over non-empty subsets."""
    if any(x < 1 for x in d):
        raise ValueError("subset-product values must be >= 1")
    cap = _resolve_cap(enum_cap)
    if len(d) > 25 or 2 ** len(d) > cap:
        raise EnumerationTooLarge(f"2^{len(d)} subsets exceed the cap")
    subsets = range(1, 1 << len(d))
    products = {math.prod(x for i, x in enumerate(d) if mask >> i & 1) for mask in subsets}
    return DegreeSet.finite({0, 1} | products)


def interval_union(bounds: Sequence[tuple[int, int]]) -> DegreeSet:
    """The literal union of the integer intervals [b, c]."""
    return DegreeSet.finite(set().union(*(range(b, c + 1) for b, c in bounds)))


def oracle_set(spec: object, enum_cap: Optional[int] = None) -> DegreeSet:
    """The brute-force target for a realisation spec, by family."""
    if isinstance(spec, SumsetFamily):
        return brute_sumset(spec.d, spec.n, spec.nprime, enum_cap)
    if isinstance(spec, ArithIntervals):
        return interval_union(spec.bounds)
    if isinstance(spec, SubsetSums):
        return brute_subset_sums(spec.d, enum_cap)
    if isinstance(spec, Geometric):
        return brute_subset_products(spec.d, enum_cap)
    raise TypeError(f"no oracle for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# certificate checking


@dataclass(frozen=True)
class Report:
    ok: bool
    engine_bound: Optional[SetBound]
    oracle: Optional[DegreeSet]
    mismatches: tuple[str, ...]

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "engine": None if self.engine_bound is None else engine.bound_to_jsonable(self.engine_bound),
            "oracle": None if self.oracle is None else intset.to_jsonable(self.oracle),
            "mismatches": list(self.mismatches),
        }

    def to_text(self) -> str:
        lines = [f"certificate check: {'OK' if self.ok else 'FAIL'}"]
        if self.engine_bound is not None:
            b = self.engine_bound
            if b.exact:
                lines.append(f"  calculator: exact {b.lower}")
            else:
                upper = "unknown" if b.upper is None else str(b.upper)
                lines.append(f"  calculator: undecided (lower {b.lower}, upper {upper})")
        if self.oracle is not None:
            lines.append(f"  oracle: {self.oracle}")
        for msg in self.mismatches:
            lines.append(f"  mismatch: {msg}")
        return "\n".join(lines)


def _closed_form_bundles(a: CircleBundle, b: CircleBundle) -> DegreeSet:
    if b.euler % a.euler == 0:
        return DegreeSet.finite((0, b.euler // a.euler))
    return ZERO_ONLY


class _Where:
    """Lazy location string: derivations are long and mostly fine."""

    def __init__(self, entry: RuleApplication):
        self.entry = entry

    def __str__(self) -> str:
        inputs = ", ".join(print_expr(x) for x in self.entry.inputs)
        return f"step {self.entry.rule} on ({inputs})"


def _recheck_entry(entry: RuleApplication, problems: list[str]) -> None:
    rule = entry.rule
    where = _Where(entry)

    if rule == "circle_bundle_pair":
        a, b = entry.inputs
        if not (isinstance(a, CircleBundle) and isinstance(b, CircleBundle)):
            problems.append(f"{where}: inputs are not circle bundles")
            return
        if a.base_genus != b.base_genus:
            problems.append(f"{where}: bundles over different bases")
            return
        if a.euler == 0:
            problems.append(f"{where}: source Euler number 0 has no closed form")
            return
        if not intset.equals(entry.produced, _closed_form_bundles(a, b)):
            problems.append(
                f"{where}: produced {entry.produced}, closed form gives {_closed_form_bundles(a, b)}"
            )

    elif rule == "connected_sum_source_sum":
        if entry.detail("exact"):
            target = entry.inputs[1]
            try:
                trivial = is_pi2_trivial(target)
            except UnsupportedExpression:
                trivial = False
            if not trivial:
                problems.append(
                    f"{where}: exactness claimed but target's second homotopy group "
                    "is not known to vanish"
                )

    elif rule == "pinch_to_submanifold":
        m, n = entry.inputs
        if summand_multiset(n) - summand_multiset(m):
            problems.append(f"{where}: target summands are not a sub-multiset of the source")

    elif rule == "fiberwise_covering_lift":
        m, n = entry.inputs
        d = entry.detail("degree")
        bundle = entry.detail("target_bundle")
        cover = entry.detail("cover_bundle")
        if not (isinstance(bundle, CircleBundle) and isinstance(cover, CircleBundle)):
            problems.append(f"{where}: covering data is not a pair of bundles")
            return
        if not isinstance(d, int) or d < 1:
            problems.append(f"{where}: covering degree {d!r} is not a positive integer")
            return
        if bundle.euler % d != 0 or cover.euler != bundle.euler // d:
            problems.append(
                f"{where}: {d} does not divide Euler number {bundle.euler} compatibly"
            )
            return
        s_n = summand_multiset(n)
        if s_n.get(bundle, 0) < 1:
            problems.append(f"{where}: covered bundle is not a summand of the target")
            return
        carrier = Counter({k: v * d for k, v in (s_n - Counter([bundle])).items()})
        carrier[cover] += 1
        if carrier - summand_multiset(m):
            problems.append(f"{where}: covering source does not embed in the source summands")

    elif rule == "target_summand_intersection":
        m, n = entry.inputs
        recorded = entry.detail("summand_uppers", ())
        acc: Optional[DegreeSet] = None
        for t, upper_raw in recorded:
            fresh = degree_bounds(m, t).upper
            if upper_raw == "unknown":
                if fresh is not None:
                    problems.append(f"{where}: recorded unknown upper for {print_expr(t)}")
                continue
            if fresh is None or not intset.equals(fresh, upper_raw):
                problems.append(
                    f"{where}: recorded upper {upper_raw} for {print_expr(t)} "
                    f"does not re-derive"
                )
                continue
            acc = upper_raw if acc is None else intset.intersect(acc, upper_raw)
        if acc is not None and not intset.equals(acc, entry.produced):
            problems.append(f"{where}: produced {entry.produced} is not the intersection {acc}")

    elif rule == "product_exactness_chain":
        order = entry.detail("order", ())
        if not order:
            problems.append(f"{where}: no factor order recorded")
            return
        sets: list[DegreeSet] = []
        for src, tgt in order:
            bound = degree_bounds(src, tgt)
            if not bound.exact:
                problems.append(
                    f"{where}: factor pair ({print_expr(src)}, {print_expr(tgt)}) is not exact"
                )
                return
            sets.append(bound.lower)
        for idx in range(1, len(order)):
            tgt = order[idx][1]
            if not is_product_domination_free(tgt):
                problems.append(
                    f"{where}: factor target {print_expr(tgt)} may be dominated by products"
                )
            for src, _ in order[:idx]:
                if engine._kill_summand(src, tgt) is None:
                    problems.append(
                        f"{where}: no summand of {print_expr(tgt)} has degree set {{0}} "
                        f"from {print_expr(src)}"
                    )
        prod = sets[0]
        for s in sets[1:]:
            prod = intset.product_set(prod, s)
        if not intset.equals(prod, entry.produced):
            problems.append(f"{where}: produced {entry.produced}, factor product is {prod}")


def _same(a: object, b: object) -> bool:
    """Equality with equal types at every level, so a recorded 0 is not false and 1.0 not 1."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _check_params(cert: Certificate, problems: list[str]) -> None:
    """The recorded free choices (base genus, geometric primes) must be
    admissible; M, N and the params must then equal the construction's."""
    spec, params = cert.spec, cert.params
    genus = params.get("base_genus")
    if not (isinstance(genus, int) and genus >= 2):
        problems.append(f"base genus {genus!r} is not hyperbolic")
        return
    if isinstance(spec, Geometric):
        qs = params.get("q")
        if not (isinstance(qs, list) and all(type(q) is int for q in qs)):
            problems.append(f"q {qs!r} is not a list of integers")
            return
        if len(qs) != len(_block_values(spec)):
            problems.append("one prime per block is required")
            return
        if not all(_is_prime(q) for q in qs):
            problems.append(f"q values {qs} are not all prime")
        if any(a >= b for a, b in zip(qs, qs[1:])):
            problems.append(f"q values {qs} are not strictly ascending")
        if qs[0] <= max(spec.d):
            problems.append(f"q1 = {qs[0]} does not exceed max d = {max(spec.d)}")
        m, n, expected = _geometric_construction(spec, qs, genus)
    else:
        try:
            m, n, expected = _sumset_construction(spec, genus)
        except InvalidSpec as exc:
            problems.append(f"spec has no realising family: {exc}")
            return
    if cert.n != n:
        problems.append(f"target is not the construction's {print_expr(n)}")
    if cert.m != m:
        problems.append("source summands do not match the family multiplicities")
    if not _same(params, expected):
        for key in {**expected, **params}:
            if key not in params:
                problems.append(f"params missing {key!r}")
            elif key not in expected:
                problems.append(f"params key {key!r} is not part of the construction")
            elif not _same(params[key], expected[key]):
                problems.append(
                    f"{key} {params[key]!r} is not the construction's {expected[key]!r}"
                )


def check_certificate(cert: Certificate, enum_cap: Optional[int] = None) -> Report:
    """Re-derive a certificate from scratch and report every discrepancy."""
    mismatches: list[str] = []

    engine_bound = degree_bounds(cert.m, cert.n)
    if not engine_bound.exact:
        mismatches.append("calculator does not decide the pair exactly")
    elif not intset.equals(engine_bound.lower, cert.target):
        mismatches.append(
            f"calculator result {engine_bound.lower} != certificate target {cert.target}"
        )

    oracle: Optional[DegreeSet] = None
    try:
        oracle = oracle_set(cert.spec, enum_cap)
        if not intset.equals(oracle, cert.target):
            mismatches.append(f"oracle result {oracle} != certificate target {cert.target}")
    except (EnumerationTooLarge, InvalidEnumCap):
        raise
    except ValueError as exc:
        mismatches.append(f"oracle rejected the spec: {exc}")

    if not cert.derivation:
        mismatches.append("derivation is empty")
    elif cert.derivation != engine_bound.trace:
        # a decoded derivation holds its expressions as text: compare JSON forms
        recorded = engine.trace_to_jsonable(cert.derivation)
        steps = zip_longest(recorded, engine.trace_to_jsonable(engine_bound.trace))
        step = next((i for i, (got, want) in enumerate(steps) if got != want), None)
        if step is not None:
            rule = recorded[step]["rule"] if step < len(recorded) else "missing"
            mismatches.append(
                f"derivation step {step + 1} is {rule}, not the calculator's trace for (M, N)"
            )
    for entry in engine_bound.trace:
        _recheck_entry(entry, mismatches)
    _check_params(cert, mismatches)

    return Report(
        ok=not mismatches,
        engine_bound=engine_bound,
        oracle=oracle,
        mismatches=tuple(mismatches),
    )
