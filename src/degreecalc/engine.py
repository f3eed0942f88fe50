"""Degree-set computation for pairs of manifold expressions.

:func:`degree_bounds` returns a :class:`SetBound`: a realised lower set, an
upper set when one can be derived, and a trace of the rules used.  The lower
set only ever contains degrees backed by an explicit construction (constant
map, identity, coverings, pinch maps, sums and products of those); the upper
set only ever follows from restriction arguments (closed forms, pinching the
target, factor projections).  Exactness is not a flag but the coincidence of
the two, so the calculator cannot silently overclaim on pairs the rules do
not cover.  For a connected-sum target the lower set comes from packing
pinches and covering lifts disjointly into the source's summands; that
search visits at most 20,000 packings in a fixed order, so on large sources
its lower set can be a part of the realised degrees.

All functions are pure and deterministic.  Expressions are canonical as
constructed, so equal manifolds always get identical results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, permutations
from typing import Iterator, Optional

from . import intset
from ._memo import LIMIT, MEMOS
from .dsl import print_expr
from .intset import ALL_INTEGERS, ZERO_ONLY, DegreeSet, UnrepresentableSet
from .manifold import (
    Circle,
    CircleBundle,
    ConnSum,
    ManifoldExpr,
    Product,
    Surface,
    UnsupportedExpression,
    _kept_hash,
    dimension,
    is_pi2_trivial,
    is_product_domination_free,
    normalize,  # held by perfbench/tests (traced_run)
    sort_key,
    summand_multiset,
)

ONE_ONLY = DegreeSet.finite((1,))


class DimensionMismatch(ValueError):
    """The two expressions do not have the same dimension."""


class NotDecided(Exception):
    """The calculator could not close the gap between lower and upper set."""

    def __init__(self, bound: "SetBound"):
        self.bound = bound
        upper = "unknown" if bound.upper is None else str(bound.upper)
        super().__init__(f"degree set not decided: lower {bound.lower}, upper {upper}")


class EngineInvariantError(AssertionError):
    """Internal soundness check failed (lower exceeded upper)."""


# Every rule name a trace entry can carry.
RULE_NAMES = frozenset(
    """circle_pair surface_pair circle_bundle_pair constant_map identity_map undetermined
    connected_sum_source_sum target_summand_intersection pinch_to_submanifold
    fiberwise_covering_lift disjoint_sum_of_constructions product_of_factor_degrees
    product_exactness_chain""".split()
)


@_kept_hash
@dataclass(frozen=True)
class RuleApplication:
    """One rule firing: which rule, on what inputs, producing which degrees.

    A step is immutable: a frozen dataclass whose details are tuples of
    expressions, DegreeSets, strings, ints and bools, as every rule here builds
    them.  Steps are shared between traces through the cache, and values
    computed from a step are kept on it, so a step must not be changed after
    it is built.
    """

    rule: str
    inputs: tuple[ManifoldExpr, ...]
    produced: DegreeSet
    details: tuple[tuple[str, object], ...] = ()

    def detail(self, key: str, default: object = None) -> object:
        return dict(self.details).get(key, default)


@dataclass(frozen=True)
class SetBound:
    """Bracket for a degree set: realised lower, derived upper, rule trace."""

    lower: DegreeSet
    upper: Optional[DegreeSet]
    trace: tuple[RuleApplication, ...] = field(default_factory=tuple)

    @property
    def exact(self) -> bool:
        upper = self.upper
        return upper is self.lower or (upper is not None and intset.equals(self.lower, upper))

    def exact_set(self) -> DegreeSet:
        if not self.exact:
            raise NotDecided(self)
        return self.lower


def _make_bound(
    lower: DegreeSet, upper: Optional[DegreeSet], trace: list[RuleApplication], distinct=False
) -> SetBound:
    """Every rule's one exit: all of Z above an all-of-Z lower set, lower
    checked against upper, and the trace without repeated steps.  The dedup
    is skipped where no step can repeat: a one-step trace, and a ``distinct``
    source-sum trace, whose children each gave one step on its own pair
    (s, N), a distinct summand s each, beside the sum's own step on (M, N)."""
    if lower.is_all:
        upper = ALL_INTEGERS
    elif upper is not None and upper is not lower and not upper.is_all:
        if not set(upper.elements).issuperset(lower.elements):
            raise EngineInvariantError(
                f"lower bound {lower} escapes upper bound {upper}"
            )
    unique = trace if distinct or len(trace) == 1 else dict.fromkeys(trace)
    return SetBound(lower, upper, tuple(unique))


# Cleared by name, not through MEMOS, so a dict put in its place is emptied;
# cleared whole when it holds LIMIT pairs.
_CACHE: dict[tuple[ManifoldExpr, ManifoldExpr], SetBound] = {}
_SUMS_BUDGET = 20000  # nodes visited by one _achievable_sums search


def clear_cache() -> None:
    """Empty the pair cache and every memo in ``_memo.MEMOS``."""
    _CACHE.clear()
    for memo in MEMOS:
        memo.cache_clear()


def degree_bounds(m: ManifoldExpr, n: ManifoldExpr) -> SetBound:
    """Best known bracket for the set of mapping degrees from m to n."""
    if dimension(m) != dimension(n):
        raise DimensionMismatch(
            f"source has dimension {dimension(m)}, target {dimension(n)}"
        )
    return _bounds(m, n)


def degree_set_exact(m: ManifoldExpr, n: ManifoldExpr) -> DegreeSet:
    """The degree set when the bracket closes; raises NotDecided otherwise."""
    return degree_bounds(m, n).exact_set()


def _bounds(m: ManifoldExpr, n: ManifoldExpr) -> SetBound:
    key = (m, n)
    hit = _CACHE.get(key)
    if hit is None:
        hit = _compute(m, n)
        if len(_CACHE) >= LIMIT:
            _CACHE.clear()
        _CACHE[key] = hit
    return hit


def _compute(m: ManifoldExpr, n: ManifoldExpr) -> SetBound:
    if isinstance(m, Circle) and isinstance(n, Circle):
        return _circle_pair(m, n)
    if isinstance(m, Surface) and isinstance(n, Surface):
        return _surface_pair(m, n)
    if isinstance(m, CircleBundle) and isinstance(n, CircleBundle):
        return _bundle_pair(m, n)
    if isinstance(n, ConnSum):
        return _target_conn_sum(m, n)
    if isinstance(m, ConnSum):
        return _source_conn_sum(m, n)
    if isinstance(m, Product) and isinstance(n, Product):
        return _product_pair(m, n)
    return _undetermined(m, n, "no rule applies to this pair of shapes")


# ---------------------------------------------------------------------------
# closed forms for the basic pairs


def _circle_pair(m: Circle, n: Circle) -> SetBound:
    entry = RuleApplication("circle_pair", (m, n), ALL_INTEGERS)
    return _make_bound(ALL_INTEGERS, ALL_INTEGERS, [entry])


def _surface_pair(m: Surface, n: Surface) -> SetBound:
    g, h = m.genus, n.genus
    if h == 0:
        result = ALL_INTEGERS
    elif h == 1:
        result = ALL_INTEGERS if g >= 1 else ZERO_ONLY
    elif g >= h:
        k = (g - 1) // (h - 1)
        result = intset.interval(-k, k)
    else:
        result = ZERO_ONLY
    entry = RuleApplication(
        "surface_pair", (m, n), result, (("source_genus", g), ("target_genus", h))
    )
    return _make_bound(result, result, [entry])


def _bundle_pair(m: CircleBundle, n: CircleBundle) -> SetBound:
    i, j = m.euler, n.euler
    if m.base_genus == n.base_genus and i != 0:
        if j % i == 0:
            q = intset._check_element(j // i)
            result = intset._trusted((q, 0) if q < 0 else (0, q) if q else (0,))
            details = (("euler_source", i), ("euler_target", j), ("quotient", q))
        else:
            result = ZERO_ONLY
            details = (("euler_source", i), ("euler_target", j))
        entry = RuleApplication("circle_bundle_pair", (m, n), result, details)
        return _make_bound(result, result, [entry])
    if m.base_genus != n.base_genus:
        reason = "circle bundles over different base surfaces"
    else:
        reason = "source bundle has Euler number 0"
    return _undetermined(m, n, reason)


def _undetermined(m: ManifoldExpr, n: ManifoldExpr, reason: str) -> SetBound:
    trace = [RuleApplication("constant_map", (m, n), ZERO_ONLY)]
    lower = ZERO_ONLY
    if m == n:
        trace.append(RuleApplication("identity_map", (m, n), ONE_ONLY))
        lower = intset.union(lower, ONE_ONLY)
    trace.append(
        RuleApplication("undetermined", (m, n), lower, (("reason", reason),))
    )
    return _make_bound(lower, None, trace)


# ---------------------------------------------------------------------------
# connected sums in the source: degree sets add


def _pi2_trivial_or_none(n: ManifoldExpr) -> Optional[bool]:
    try:
        return is_pi2_trivial(n)
    except UnsupportedExpression:
        return None


def _fold_sumsets(parts: list[tuple[DegreeSet, int]]) -> DegreeSet:
    """The sumset of the given sets, each taken with its multiplicity.

    Its own function so that a profiler or tracer can time the folding of
    connected sums apart from the rest of the rule.
    """
    return intset.weighted_sumset(parts)


def _source_conn_sum(m: ConnSum, n: ManifoldExpr) -> SetBound:
    trace: list[RuleApplication] = []
    parts: list[tuple[DegreeSet, int]] = []
    exact = distinct = True
    summands = 0
    for s, count in m.counts:
        child = _bounds(s, n)
        trace.extend(child.trace)
        parts.append((child.lower, count))
        exact = exact and child.exact
        distinct = distinct and len(child.trace) == 1
        summands += count

    lower = _fold_sumsets(parts)
    pi2 = _pi2_trivial_or_none(n)
    # One fold: pi2 holds only for a bundle N (sums go to _target_conn_sum),
    # and against it a summand is exact or has no upper set at all.
    upper = lower if pi2 and exact else None
    entry = RuleApplication(
        "connected_sum_source_sum",
        (m, n),
        lower,
        (
            ("summand_count", summands),
            ("pi2_trivial_target", bool(pi2)),
            ("exact", upper is not None),
        ),
    )
    trace.append(entry)
    return _make_bound(lower, upper, trace, distinct)


# ---------------------------------------------------------------------------
# connected sums in the target: pinch upper bounds, covering lower bounds


def _achievable_sums(
    constructions: list[tuple[int, tuple[int, ...]]], capacity: tuple[int, ...]
) -> set[int]:
    """All degree totals from packing constructions disjointly into capacity.

    Carriers and capacity count copies of each source summand type.  A
    construction may repeat as long as its carrier still fits.  Packings are
    visited depth first, each one extending its parent by a construction of
    equal or later index; the order is fixed, so the node budget cuts a
    deterministic prefix.
    """
    sums = {0}
    nodes = 1
    # frames: next construction index, capacity left, degree so far
    stack = [(0, capacity, 0)]
    while stack and nodes < _SUMS_BUDGET:
        first, left, degree = stack.pop()
        for t in range(first, len(constructions)):
            d, carrier = constructions[t]
            rest = tuple(a - b for a, b in zip(left, carrier))
            if min(rest) >= 0:
                stack.append((t + 1, left, degree))
                stack.append((t, rest, degree + d))
                sums.add(degree + d)
                nodes += 1
                break
    return sums


def _target_conn_sum(m: ManifoldExpr, n: ConnSum) -> SetBound:
    trace: list[RuleApplication] = []

    # Upper bound: a map onto the sum composes with the pinch onto each
    # summand, so the degree set embeds in every summand's degree set.
    summand_uppers: list[tuple[ManifoldExpr, object]] = []
    upper: Optional[DegreeSet] = None
    for t, _ in n.counts:
        child = _bounds(m, t)
        trace.extend(child.trace)
        summand_uppers.append((t, child.upper if child.upper is not None else "unknown"))
        if child.upper is not None:
            upper = child.upper if upper is None else intset.intersect(upper, child.upper)
    if upper is not None:
        trace.append(
            RuleApplication(
                "target_summand_intersection",
                (m, n),
                upper,
                (("summand_uppers", tuple(summand_uppers)),),
            )
        )

    # Lower bound constructions, each consuming a sub-multiset of m's summands:
    # the pinch, and covering lifts of degree d >= 2 (a degree-1 lift is the pinch).
    s_m = summand_multiset(m)
    s_n = summand_multiset(n)
    total_m = sum(s_m.values())
    constructions: list[tuple[int, Counter, RuleApplication]] = []

    if not s_n - s_m:
        entry = RuleApplication("pinch_to_submanifold", (m, n), ONE_ONLY, (("degree", 1),))
        constructions.append((1, s_n, entry))

    for bundle, _ in n.counts:
        if not isinstance(bundle, CircleBundle):
            continue
        rest = s_n - Counter([bundle])
        total_rest = sum(rest.values())
        j = bundle.euler
        if j != 0:
            # a degree-d lift needs K(g; j/d) among the source summands
            candidates = {
                j // s.euler
                for s in s_m
                if isinstance(s, CircleBundle)
                and s.base_genus == bundle.base_genus
                and s.euler != 0
                and j % s.euler == 0
                and j // s.euler > 1
            }
        else:
            candidates = range(2, (total_m - 1) // total_rest + 1) if total_rest else ()
        for d in candidates:
            cover = CircleBundle(bundle.base_genus, j // d)
            carrier = Counter({k: v * d for k, v in rest.items()})
            carrier[cover] += 1
            if carrier - s_m:
                continue
            entry = RuleApplication(
                "fiberwise_covering_lift",
                (m, n),
                DegreeSet.finite((d,)),
                (
                    ("degree", d),
                    ("target_bundle", bundle),
                    ("cover_bundle", cover),
                    ("copies_of_remaining_summands", d),
                ),
            )
            constructions.append((d, carrier, entry))

    constructions.sort(key=lambda c: (c[0], sorted((sort_key(e), k) for e, k in c[1].items())))
    trace.append(RuleApplication("constant_map", (m, n), ZERO_ONLY))
    trace.extend(entry for _, _, entry in constructions)

    types = list(s_m)
    packable = [(d, tuple(carrier[t] for t in types)) for d, carrier, _ in constructions]
    sums = _achievable_sums(packable, tuple(s_m.values()))
    lower = DegreeSet.finite(sums)
    single = {0} | {d for d, _, _ in constructions}
    if not sums <= single:
        trace.append(
            RuleApplication(
                "disjoint_sum_of_constructions",
                (m, n),
                lower,
                (("component_degrees", tuple(d for d, _, _ in constructions)),),
            )
        )
    return _make_bound(lower, upper, trace)


# ---------------------------------------------------------------------------
# products: degree sets multiply, with exactness under side conditions


def _fold_product_sets(parts: list[DegreeSet]) -> DegreeSet:
    acc = ONE_ONLY
    for p in parts:
        acc = intset.product_set(acc, p)
    return acc


def _clamped(p: DegreeSet) -> DegreeSet:
    return DegreeSet.finite((-1, 0, 1)) if p.is_all else p


def _bundle_summands(n: CircleBundle | ConnSum) -> list[CircleBundle]:
    if isinstance(n, CircleBundle):
        return [n]
    return [s for s, _ in n.counts if isinstance(s, CircleBundle)]


def _kill_summand(source: ManifoldExpr, target: ManifoldExpr) -> Optional[CircleBundle]:
    """A circle-bundle summand of the target whose degree set from the
    source is exactly {0}: this forces maps from the source into the
    target factor to be homologically trivial in top degree."""
    for k in _bundle_summands(target):
        b = _bounds(source, k)
        if b.upper is not None and intset.equals(b.upper, ZERO_ONLY):
            return k
    return None


def _chain_search(
    pairs: list[tuple[ManifoldExpr, ManifoldExpr]]
) -> Optional[tuple[list[int], list[tuple[ManifoldExpr, CircleBundle]]]]:
    """Find an evaluation order in which every later target factor both
    resists product domination and kills the accumulated source factors.

    Each step takes the lowest remaining index p such that every other
    remaining target resists domination and kills source p.  Any part of a
    valid order is itself valid, so the lowest index that may precede all
    the rest is always the next element of the first valid order, which is
    the one returned.  Each kill is tested at most once per call.
    """
    free = [is_product_domination_free(n) for _, n in pairs]
    kill: dict[tuple[int, int], Optional[CircleBundle]] = {}

    def precedes(p: int, c: int) -> bool:
        if free[c] and (p, c) not in kill:
            kill[p, c] = _kill_summand(pairs[p][0], pairs[c][1])
        return free[c] and kill[p, c] is not None

    order: list[int] = []
    remaining = list(range(len(pairs)))
    while remaining:
        first = next(
            (p for p in remaining if all(precedes(p, c) for c in remaining if c != p)), None
        )
        if first is None:
            return None
        order.append(first)
        remaining.remove(first)
    kills = []
    for j in range(len(order) - 1, 0, -1):
        kills.extend((pairs[p][0], kill[p, order[j]]) for p in order[:j])
    return order, kills


def _pairings(
    mf: tuple[ManifoldExpr, ...], nf: tuple[ManifoldExpr, ...]
) -> Iterator[list[tuple[ManifoldExpr, ManifoldExpr]]]:
    """The distinct dimension-compatible pairings of mf with nf, lazily, in
    permutation order: a permutation that puts the same factors of nf in the
    same places as an earlier one gives the same pairing and is skipped."""
    first = tuple(nf.index(f) for f in nf)  # each factor as the index of its first equal
    mdims, ndims = tuple(map(dimension, mf)), tuple(map(dimension, nf))
    mixed = len({*mdims, *ndims}) > 1
    seen: set[tuple[int, ...]] = set()
    for perm in [first] if len(mf) > 6 else permutations(first):
        if perm in seen or mixed and any(d != ndims[i] for d, i in zip(mdims, perm)):
            continue
        seen.add(perm)
        yield [(a, nf[i]) for a, i in zip(mf, perm)]


def _product_pair(m: Product, n: Product) -> SetBound:
    mf, nf = m.factors, n.factors
    if len(mf) != len(nf):
        return _undetermined(m, n, "products with different factor counts")
    pairings = _pairings(mf, nf)
    # the first pairing is the positional one whenever that is compatible
    lower_pairing = next(pairings, None)
    if lower_pairing is None:
        return _undetermined(m, n, "no dimension-compatible factor pairing")

    trace: list[RuleApplication] = []
    children = [_bounds(a, b) for a, b in lower_pairing]
    for child in children:
        trace.extend(child.trace)
    try:
        lower = _fold_product_sets([c.lower for c in children])
        clamped = False
    except UnrepresentableSet:
        lower = _fold_product_sets([_clamped(c.lower) for c in children])
        clamped = True
    trace.append(
        RuleApplication(
            "product_of_factor_degrees",
            (m, n),
            lower,
            (
                ("pairing", tuple(lower_pairing)),
                ("lower_truncated_to_units", clamped),
            ),
        )
    )
    if lower.is_all:
        return _make_bound(lower, ALL_INTEGERS, trace)

    if all(dimension(f) == 3 for f in mf):
        for pairing in chain([lower_pairing], pairings):
            children = [_bounds(a, b) for a, b in pairing]
            if not all(c.exact for c in children):
                continue
            found = _chain_search(pairing)
            if found is None:
                continue
            order, kills = found
            for child in children:
                trace.extend(child.trace)
            folded = pairing is lower_pairing and not clamped  # lower is then its product set
            exact = lower if folded else _fold_product_sets([c.lower for c in children])
            if not (exact is lower or exact.is_all or set(lower.elements) <= set(exact.elements)):
                raise EngineInvariantError(
                    f"factor pairing disagreement: realised {lower} "
                    f"outside decided {exact}"
                )
            trace.append(
                RuleApplication(
                    "product_exactness_chain",
                    (m, n),
                    exact,
                    (
                        ("order", tuple(pairing[i] for i in order)),
                        ("kills", tuple(kills)),
                    ),
                )
            )
            return _make_bound(exact, exact, trace)

    return _make_bound(lower, None, trace)


# ---------------------------------------------------------------------------
# serialization


_EXPR_TYPES = (Circle, Surface, CircleBundle, ConnSum, Product)


def json_view(v: object) -> object:
    """How a held value is written, one level down: a trace step is its object
    (keys in written order, values as held), a DegreeSet :func:`intset.to_jsonable`,
    an expression its :func:`print_expr` text, and any other value itself.  It is
    shallow so that a JSON encoder's ``default`` can write the form without
    building it; :func:`jsonable` builds it, and ``realiser.json_text`` writes it."""
    t = type(v)
    if t is RuleApplication:
        details = dict(v.details)
        return {"rule": v.rule, "inputs": v.inputs, "produced": v.produced, "details": details}
    if t is DegreeSet:
        return intset.to_jsonable(v)
    if t in _EXPR_TYPES:
        return print_expr(v)
    return v


def jsonable(v: object) -> object:
    """The JSON value of ``v``: :func:`json_view` at every level, tuples as lists."""
    v = json_view(v)
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def trace_to_jsonable(trace: tuple[RuleApplication, ...]) -> list[dict]:
    return jsonable(trace)


def bound_to_jsonable(bound: SetBound) -> dict:
    return jsonable(
        {"lower": bound.lower, "upper": bound.upper, "exact": bound.exact, "trace": bound.trace}
    )
