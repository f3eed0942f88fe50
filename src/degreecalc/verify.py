"""Independent brute-force oracles and the certificate checker.

The oracles enumerate the defining formulas of the realisable families
directly -- tuples of multiplicities, subsets, subset products -- without
calling the calculator or the set algebra's sum/product operations, so they
can serve as ground truth against both.  Enumeration sizes are capped; the
cap is configuration (``DEGREECALC_ENUM_CAP``), and exceeding it is an
explicit error, never a silent truncation.

:func:`check_certificate` accepts a certificate exactly when (a) the
calculator reproduces its target from (M, N), (b) the family oracle
reproduces its target from the spec, and (c) the recorded derivation is the
calculator's trace for (M, N), as a realised certificate's or one decoded
from the writer's text is, or has the trace's canonical JSON text, and its
steps re-validate.  The steps re-validate by closed forms that never call the
calculator: the Euler-number quotient for bundle pairs, summand containment
for pinches and covering lifts, and for product steps the domination form
(every later target factor has a bundle summand with non-zero Euler number)
and the kill form (each earlier source factor has a recorded kill summand in
each later target factor, to which every summand of that source, a bundle
over the same base with non-zero Euler number, maps with closed form {0}).
The recorded free choices must be admissible -- an int base genus g >= 2
and, for the geometric family, one prime per block, strictly ascending and
above every d -- and M, N and each params value, in type too, must then
equal the realiser's construction for the spec and those choices.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import product as iter_product, zip_longest
from typing import Optional, Sequence

from . import engine, intset
from .dsl import print_expr
from .engine import RuleApplication, SetBound, degree_bounds
from .intset import ZERO_ONLY, DegreeSet
from .manifold import (
    CircleBundle,
    ManifoldExpr,
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
    _same,
    _sumset_construction,
)

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "DEGREECALC_ENUM_CAP"


class EnumerationTooLarge(ValueError):
    """The requested enumeration exceeds the configured cap."""


class InvalidEnumCap(ValueError):
    """The enumeration cap in the environment is not an integer."""


def _resolve_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP)
    try:
        return int(raw)
    except ValueError:
        raise InvalidEnumCap(f"{ENUM_CAP_ENV}={raw!r} is not an integer") from None


def brute_sumset(d: Sequence[int], n: Sequence[int], nprime: Sequence[int]) -> DegreeSet:
    """Enumerate {sum m_i d_i | -n'_i <= m_i <= n_i} tuple by tuple."""
    if not (len(d) == len(n) == len(nprime)):
        raise ValueError("d, n, nprime must have equal lengths")
    if len(d) == 0:
        raise ValueError("need at least one term")
    if any(x <= 0 for x in d):
        raise ValueError("family values d_i must be positive")
    if any(x < 0 for x in n) or any(x < 0 for x in nprime):
        raise ValueError("multiplicities must be >= 0")
    cap = _resolve_cap()
    count = math.prod(ni + npi + 1 for ni, npi in zip(n, nprime))
    if count > cap:
        raise EnumerationTooLarge(f"{count} tuples exceed the cap of {cap}")
    ranges = [range(-npi, ni + 1) for ni, npi in zip(n, nprime)]
    sums = {sum(m * di for m, di in zip(tup, d)) for tup in iter_product(*ranges)}
    return DegreeSet.finite(sums)


def _check_subset_count(d: Sequence[int]) -> None:
    """Refuse exactly when the 2^len(d) subsets exceed the cap, without building 2^len(d)."""
    cap = _resolve_cap()
    if cap < 1 or len(d) >= cap.bit_length():
        raise EnumerationTooLarge(f"2^{len(d)} subsets exceed the cap of {cap}")


def brute_subset_sums(d: Sequence[int]) -> DegreeSet:
    """Enumerate {sum over S of d_j | S a subset of the index set}."""
    _check_subset_count(d)
    sums = {sum(x for i, x in enumerate(d) if mask >> i & 1) for mask in range(1 << len(d))}
    return DegreeSet.finite(sums)


def brute_subset_products(d: Sequence[int]) -> DegreeSet:
    """Enumerate {0, 1} together with products over non-empty subsets."""
    if any(x < 1 for x in d):
        raise ValueError("subset-product values must be >= 1")
    _check_subset_count(d)
    subsets = range(1, 1 << len(d))
    products = {math.prod(x for i, x in enumerate(d) if mask >> i & 1) for mask in subsets}
    return DegreeSet.finite({0, 1} | products)


def interval_union(bounds: Sequence[tuple[int, int]]) -> DegreeSet:
    """The literal union of the integer intervals [b, c]."""
    return DegreeSet.finite(set().union(*(range(b, c + 1) for b, c in bounds)))


def oracle_set(spec: object) -> DegreeSet:
    """The brute-force target for a realisation spec, by family."""
    if isinstance(spec, SumsetFamily):
        return brute_sumset(spec.d, spec.n, spec.nprime)
    if isinstance(spec, ArithIntervals):
        return interval_union(spec.bounds)
    if isinstance(spec, SubsetSums):
        return brute_subset_sums(spec.d)
    if isinstance(spec, Geometric):
        return brute_subset_products(spec.d)
    raise TypeError(f"no oracle for {type(spec).__name__}")


# ---------------------------------------------------------------------------
# certificate checking


@dataclass(frozen=True)
class Report:
    ok: bool
    engine_bound: SetBound
    oracle: Optional[DegreeSet]
    mismatches: tuple[str, ...]

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "engine": engine.bound_to_jsonable(self.engine_bound),
            "oracle": engine.jsonable(self.oracle),
            "mismatches": list(self.mismatches),
        }

    def to_text(self) -> str:
        lines = [f"certificate check: {'OK' if self.ok else 'FAIL'}"]
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


def _where(entry: RuleApplication) -> str:
    """The location of a problem: built only when one is found."""
    inputs = ", ".join(print_expr(x) for x in entry.inputs)
    return f"step {entry.rule} on ({inputs})"


def _kills_by_closed_form(source: ManifoldExpr, k: CircleBundle) -> bool:
    """Whether every summand of ``source`` is a bundle over k's base with
    non-zero Euler number and closed form {0} to k, so that the sum maps to
    k with degree set {0}."""
    return all(
        isinstance(s, CircleBundle)
        and s.base_genus == k.base_genus
        and s.euler != 0
        and intset.equals(_closed_form_bundles(s, k), ZERO_ONLY)
        for s in summand_multiset(source)
    )


def _recheck_entry(entry: RuleApplication, problems: list[str]) -> None:
    rule = entry.rule
    if rule == "circle_bundle_pair":
        a, b = entry.inputs
        if a.base_genus != b.base_genus:
            problems.append(f"{_where(entry)}: bundles over different bases")
        elif a.euler == 0:
            problems.append(f"{_where(entry)}: source Euler number 0 has no closed form")
        elif not intset.equals(entry.produced, _closed_form_bundles(a, b)):
            problems.append(
                f"{_where(entry)}: produced {entry.produced}, "
                f"closed form gives {_closed_form_bundles(a, b)}"
            )

    elif rule == "pinch_to_submanifold":
        m, n = entry.inputs
        if summand_multiset(n) - summand_multiset(m):
            problems.append(f"{_where(entry)}: target summands are not a sub-multiset of the source")

    elif rule == "fiberwise_covering_lift":
        m, n = entry.inputs
        d = entry.detail("degree")
        bundle = entry.detail("target_bundle")
        cover = entry.detail("cover_bundle")
        if bundle.euler % d != 0 or cover.euler != bundle.euler // d:
            problems.append(
                f"{_where(entry)}: {d} does not divide Euler number {bundle.euler} compatibly"
            )
            return
        s_n = summand_multiset(n)
        if s_n.get(bundle, 0) < 1:
            problems.append(f"{_where(entry)}: covered bundle is not a summand of the target")
            return
        carrier = Counter({k: v * d for k, v in (s_n - Counter([bundle])).items()})
        carrier[cover] += 1
        if carrier - summand_multiset(m):
            problems.append(f"{_where(entry)}: covering source does not embed in the source summands")

    elif rule == "product_exactness_chain":
        # The factor product itself is not recomputed: a wrong one changes
        # the target, which the oracle catches.
        order = entry.detail("order")
        kills = dict.fromkeys(entry.detail("kills"))
        for src, k in kills:
            if not _kills_by_closed_form(src, k):
                problems.append(
                    f"{_where(entry)}: {print_expr(k)} does not have degree set {{0}} "
                    f"from {print_expr(src)}"
                )
        for idx, (_, tgt) in enumerate(order[1:], 1):
            summands = summand_multiset(tgt)
            if not any(isinstance(s, CircleBundle) and s.euler != 0 for s in summands):
                problems.append(
                    f"{_where(entry)}: factor target {print_expr(tgt)} may be dominated by products"
                )
            for src, _ in order[:idx]:
                if not any((src, s) in kills for s in summands):
                    problems.append(
                        f"{_where(entry)}: no recorded kill of {print_expr(src)} "
                        f"by a summand of {print_expr(tgt)}"
                    )


def _check_params(cert: Certificate, problems: list[str]) -> None:
    """The recorded free choices (base genus, geometric primes) must be
    admissible; M, N and the params must then equal the construction's."""
    spec, params = cert.spec, cert.params
    if not isinstance(params, Mapping):
        problems.append(f"params {params!r} is not a mapping")
        return
    genus = params.get("base_genus")
    if not (type(genus) is int and genus >= 2):
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
    if cert.n is not n and cert.n != n:
        problems.append(f"target is not the construction's {print_expr(n)}")
    if cert.m is not m and cert.m != m:
        problems.append("source summands do not match the family multiplicities")
    for key in {**expected, **params}:
        if key not in params:
            problems.append(f"params missing {key!r}")
        elif key not in expected:
            problems.append(f"params key {key!r} is not part of the construction")
        elif not _same(params[key], expected[key]):
            problems.append(f"{key} {params[key]!r} is not the construction's {expected[key]!r}")


def check_certificate(cert: Certificate) -> Report:
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
        oracle = oracle_set(cert.spec)
        if not intset.equals(oracle, cert.target):
            mismatches.append(f"oracle result {oracle} != certificate target {cert.target}")
    except (EnumerationTooLarge, InvalidEnumCap):
        raise
    except ValueError as exc:
        mismatches.append(f"oracle rejected the spec: {exc}")

    trace = engine_bound.trace
    if not cert.derivation:
        mismatches.append("derivation is empty")
    elif not isinstance(cert.derivation, Iterable):
        mismatches.append(f"derivation {cert.derivation!r} is not a list of steps")
    elif not (cert.derivation is trace or _same(cert.derivation, trace)):
        missing = object()  # no JSON text, so no entry, None included, is the same as it
        pairs = enumerate(zip_longest(cert.derivation, trace, fillvalue=missing), 1)
        step, got = next((i, got) for i, (got, want) in pairs if not _same(got, want))
        view = {"rule": "missing"} if got is missing else engine.json_view(got)
        rule = view.get("rule") if isinstance(view, dict) else repr(view)
        mismatches.append(
            f"derivation step {step} is {rule}, not the calculator's trace for (M, N)"
        )
    for entry in trace:
        # a step's recheck depends on the step alone, and steps are immutable
        # and shared between traces: keep its problems on it, as its text is
        problems = getattr(entry, "_problems", None)
        if problems is None:
            found: list[str] = []
            _recheck_entry(entry, found)
            problems = tuple(found)
            object.__setattr__(entry, "_problems", problems)
        mismatches.extend(problems)
    _check_params(cert, mismatches)

    return Report(
        ok=not mismatches,
        engine_bound=engine_bound,
        oracle=oracle,
        mismatches=tuple(mismatches),
    )
