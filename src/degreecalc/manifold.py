"""Manifold expression trees and the topological predicates the rules need.

The expression language covers exactly the families the degree calculus
handles: the circle, closed oriented surfaces, oriented circle bundles over
hyperbolic surfaces, connected sums, and direct products.  Values are
immutable and hashable.  A connected sum is stored as the multiset of its
summands; :func:`normalize` puts expressions in a canonical form (flattened,
sorted, singleton sums collapsed) so that structurally equal manifolds
compare equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Union


class MalformedExpr(ValueError):
    """The expression violates a structural invariant."""


class UnsupportedExpression(ValueError):
    """A predicate was asked about an expression it cannot decide."""


@dataclass(frozen=True)
class Circle:
    """The circle S^1 (dimension 1)."""


@dataclass(frozen=True)
class Surface:
    """The closed oriented surface of the given genus (dimension 2)."""

    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise MalformedExpr(f"surface genus must be >= 0, got {self.genus}")


@dataclass(frozen=True)
class CircleBundle:
    """The oriented circle bundle over a hyperbolic surface (dimension 3).

    ``base_genus`` must be at least 2: the degree-set rules for these
    bundles rely on the base being hyperbolic.
    """

    base_genus: int
    euler: int

    def __post_init__(self) -> None:
        if self.base_genus < 2:
            raise MalformedExpr(
                f"circle bundle base genus must be >= 2, got {self.base_genus}"
            )


@dataclass(frozen=True, init=False)
class ConnSum:
    """Connected sum of equal-dimension manifolds of dimension >= 2.

    Stored as a multiset: ``counts`` holds each distinct summand once, in
    :func:`sort_key` order, with its multiplicity.  The constructor takes the
    summands with repeats, e.g. ``ConnSum((a, b, a))``, or a mapping from
    summand to positive count, e.g. ``ConnSum({a: 2, b: 1})``.
    """

    counts: tuple[tuple["ManifoldExpr", int], ...]

    def __init__(self, summands: Iterable["ManifoldExpr"]):
        counts = Counter(summands)
        if not counts:
            raise MalformedExpr("connected sum needs at least one summand")
        dims = {dimension(s) for s in counts}
        if len(dims) > 1:
            raise MalformedExpr(f"connected sum of mixed dimensions {sorted(dims)}")
        if dims == {1}:
            raise MalformedExpr("connected sums of 1-manifolds are not allowed")
        ordered = sorted(counts.items(), key=lambda item: sort_key(item[0]))
        object.__setattr__(self, "counts", tuple(ordered))

    @property
    def summands(self) -> tuple["ManifoldExpr", ...]:
        """The summands with repeats, in :func:`sort_key` order."""
        return tuple(s for s, c in self.counts for _ in range(c))


@dataclass(frozen=True)
class Product:
    """Direct product of at least two manifolds."""

    factors: tuple["ManifoldExpr", ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise MalformedExpr("product needs at least two factors")


ManifoldExpr = Union[Circle, Surface, CircleBundle, ConnSum, Product]

CIRCLE = Circle()


def conn_sum(*summands: ManifoldExpr) -> ManifoldExpr:
    """Normalized connected sum of the given summands."""
    return normalize(ConnSum(tuple(summands)))


def product(*factors: ManifoldExpr) -> ManifoldExpr:
    """Normalized direct product of the given factors."""
    return normalize(Product(tuple(factors)))


def dimension(m: ManifoldExpr) -> int:
    if isinstance(m, Circle):
        return 1
    if isinstance(m, Surface):
        return 2
    if isinstance(m, CircleBundle):
        return 3
    if isinstance(m, ConnSum):
        return dimension(m.counts[0][0])
    if isinstance(m, Product):
        return sum(dimension(f) for f in m.factors)
    raise MalformedExpr(f"not a manifold expression: {m!r}")


def sort_key(m: ManifoldExpr) -> tuple:
    """A total order on expressions: variant rank, then fields, then children."""
    if isinstance(m, Circle):
        return (0, (), ())
    if isinstance(m, Surface):
        return (1, (m.genus,), ())
    if isinstance(m, CircleBundle):
        return (2, (m.base_genus, m.euler), ())
    if isinstance(m, ConnSum):
        # the order of the summand tuples with repeats, one item per run: at an
        # equal key fewer copies sort later, except in the last run
        last = len(m.counts) - 1
        runs = ((sort_key(s), i < last, -c if i < last else c) for i, (s, c) in enumerate(m.counts))
        return (3, (), tuple(runs))
    return (4, (), tuple(sort_key(f) for f in m.factors))


def normalize(m: ManifoldExpr) -> ManifoldExpr:
    """Canonical form: same-kind children flattened, children sorted,
    single-summand connected sums collapsed.  Idempotent, and preserves the
    multiset of leaves; an input already in canonical form is returned as is."""
    if isinstance(m, (Circle, Surface, CircleBundle)):
        return m
    if isinstance(m, ConnSum):
        children = tuple((normalize(s), c) for s, c in m.counts)
        nested = any(isinstance(t, ConnSum) for t, _ in children)
        if children == m.counts and not nested and sum(c for _, c in children) > 1:
            return m
        merged: Counter = Counter()
        for t, c in children:
            for u, k in t.counts if isinstance(t, ConnSum) else ((t, 1),):
                merged[u] += k * c
        return next(iter(merged)) if merged.total() == 1 else ConnSum(merged.elements())
    if isinstance(m, Product):
        flat = []
        for f in m.factors:
            f = normalize(f)
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        ordered = tuple(sorted(flat, key=sort_key))
        return m if ordered == m.factors else Product(ordered)
    raise MalformedExpr(f"not a manifold expression: {m!r}")


def summand_multiset(m: ManifoldExpr) -> Counter:
    """The connected summands of a normalized expression, as a multiset.

    Non-sums count as a single summand of themselves.
    """
    if isinstance(m, ConnSum):
        return Counter(dict(m.counts))
    return Counter({m: 1})


def is_pi2_trivial(n: ManifoldExpr) -> bool:
    """Whether the second homotopy group of this 3-manifold vanishes.

    True for circle bundles over hyperbolic surfaces (they are aspherical)
    and for one-summand connected sums; false for sums of two or more
    summands, whose connecting sphere is essential.
    """
    if dimension(n) != 3:
        raise UnsupportedExpression(f"pi_2 test needs a 3-manifold, got dimension {dimension(n)}")
    if isinstance(n, CircleBundle):
        return True
    if isinstance(n, ConnSum):
        return n.counts[0][1] == 1 and len(n.counts) == 1 and is_pi2_trivial(n.counts[0][0])
    raise UnsupportedExpression(f"pi_2 not determined for {type(n).__name__}")


def is_product_domination_free(n: ManifoldExpr) -> bool:
    """Whether this 3-manifold is known to admit no non-zero degree map
    from any direct product.

    True for circle bundles with non-zero Euler number, and for connected
    sums containing such a summand (a product dominating the sum would,
    after pinching, dominate the summand).  Everything else conservatively
    returns false, which is always sound for the callers.
    """
    if dimension(n) != 3:
        return False
    if isinstance(n, CircleBundle):
        return n.euler != 0
    if isinstance(n, ConnSum):
        return any(
            isinstance(s, CircleBundle) and s.euler != 0 for s, _ in n.counts
        ) or any(
            isinstance(s, ConnSum) and is_product_domination_free(s) for s, _ in n.counts
        )
    return False
