"""Manifold expression trees and the topological predicates the rules need.

The expression language covers exactly the families the degree calculus
handles: the circle, closed oriented surfaces, oriented circle bundles over
hyperbolic surfaces, connected sums, and direct products.  Values are
immutable, hashable and canonical by construction, with a plain int in every
field and count: a connected sum is stored as the sorted multiset of its
summands with nested sums merged in, and a product stores its factors
flattened and sorted, so structurally equal manifolds compare and print alike.
A connected sum has two or more summands, counted with multiplicity, and a
product two or more factors, so each manifold has one value.
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
        if type(self.genus) is not int:
            raise MalformedExpr(f"surface genus must be an int, got {self.genus!r}")
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
        if not type(self.base_genus) is type(self.euler) is int:
            raise MalformedExpr(f"circle bundle fields must be ints, got {self!r}")
        if self.base_genus < 2:
            raise MalformedExpr(f"circle bundle base genus must be >= 2, got {self.base_genus}")


def _kept_hash(cls: type) -> type:
    """Make a frozen dataclass keep its own hash once computed: every cache
    lookup and step hash on a tree would otherwise walk all of it.  The kept
    hash is read by ``getattr``, which builds no ``__dict__`` for the object,
    and left out of the state, so a copy or pickle computes its own, as a hash
    over strings differs between processes."""
    dataclass_hash = cls.__hash__

    def __hash__(self: object) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = dataclass_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self: object) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


@_kept_hash
@dataclass(frozen=True, init=False)
class ConnSum:
    """Connected sum of equal-dimension manifolds of dimension >= 2.

    Stored as a multiset of two or more summands: ``counts`` holds each
    distinct summand once, in :func:`sort_key` order, with its multiplicity.
    The constructor takes the summands with repeats, e.g. ``ConnSum((a, b, a))``,
    or a mapping from summand to positive count, e.g. ``ConnSum({a: 2, b: 1})``;
    a summand that is itself a sum is merged in, its counts multiplied by its
    own count.  A lone summand is no sum: :func:`conn_sum` returns it as is.
    """

    counts: tuple[tuple["ManifoldExpr", int], ...]

    def __init__(self, summands: Iterable["ManifoldExpr"]):
        counts = Counter(summands)
        if set(map(type, counts.values())) - {int}:
            raise MalformedExpr(f"connected sum counts must be ints, got {list(counts.values())}")
        for inner in [s for s in counts if isinstance(s, ConnSum)]:
            c = counts.pop(inner)
            for s, k in inner.counts:
                counts[s] += k * c
        if not counts:
            raise MalformedExpr("connected sum needs at least one summand")
        if min(counts.values()) < 1:
            raise MalformedExpr("connected sum counts must be positive")
        dims = {dimension(s) for s in counts}
        if len(dims) > 1:
            raise MalformedExpr(f"connected sum of mixed dimensions {sorted(dims)}")
        if dims == {1}:
            raise MalformedExpr("connected sums of 1-manifolds are not allowed")
        if list(counts.values()) == [1]:
            raise MalformedExpr("connected sum needs two or more summands (with multiplicity)")
        ordered = sorted(counts.items(), key=lambda item: sort_key(item[0]))
        object.__setattr__(self, "counts", tuple(ordered))

    @classmethod
    def _trusted(cls, counts: tuple[tuple["ManifoldExpr", int], ...]) -> ConnSum:
        """A sum without validation: the caller guarantees canonical ``counts``,
        distinct non-sum summands in :func:`sort_key` order with positive
        counts adding up to two or more, all of one dimension >= 2."""
        s = object.__new__(cls)
        object.__setattr__(s, "counts", counts)
        return s

    @property
    def summands(self) -> tuple["ManifoldExpr", ...]:
        """The summands with repeats, in :func:`sort_key` order."""
        return tuple(s for s, c in self.counts for _ in range(c))


@_kept_hash
@dataclass(frozen=True)
class Product:
    """Direct product of at least two manifolds, stored with nested products
    flattened and factors in :func:`sort_key` order."""

    factors: tuple["ManifoldExpr", ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise MalformedExpr("product needs at least two factors")
        flat: list[ManifoldExpr] = []
        for f in map(normalize, self.factors):  # each factor must be an expression
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        object.__setattr__(self, "factors", tuple(sorted(flat, key=sort_key)))


ManifoldExpr = Union[Circle, Surface, CircleBundle, ConnSum, Product]

CIRCLE = Circle()


def conn_sum(*summands: ManifoldExpr) -> ManifoldExpr:
    """Connected sum of the given summands; one summand is returned as is."""
    return summands[0] if len(summands) == 1 and dimension(summands[0]) > 1 else ConnSum(summands)


def product(*factors: ManifoldExpr) -> ManifoldExpr:
    """Direct product of the given factors."""
    return Product(tuple(factors))


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
    """The expression itself, which is canonical as constructed; raises
    :class:`MalformedExpr` for a value that is not an expression."""
    if isinstance(m, (Circle, Surface, CircleBundle, ConnSum, Product)):
        return m
    raise MalformedExpr(f"not a manifold expression: {m!r}")


def summand_multiset(m: ManifoldExpr) -> Counter:
    """The connected summands of an expression, as a multiset.

    Non-sums count as a single summand of themselves.
    """
    if isinstance(m, ConnSum):
        return Counter(dict(m.counts))
    return Counter({m: 1})


def is_pi2_trivial(n: ManifoldExpr) -> bool:
    """Whether the second homotopy group of this 3-manifold vanishes.

    True for circle bundles over hyperbolic surfaces (they are aspherical);
    false for connected sums, whose connecting sphere is essential.
    """
    if dimension(n) != 3:
        raise UnsupportedExpression(f"pi_2 test needs a 3-manifold, got dimension {dimension(n)}")
    if isinstance(n, CircleBundle):
        return True
    if isinstance(n, ConnSum):
        return False
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
        return any(isinstance(s, CircleBundle) and s.euler != 0 for s, _ in n.counts)
    return False
