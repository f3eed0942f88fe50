"""Exact integer-set algebra: Minkowski sums, product sets, lattice operations.

A :class:`DegreeSet` is either a finite set of integers (stored as a sorted
tuple) or the whole of the integers.  These are the values that degree-set
computations produce, and every operation here is exact: there is no
truncation, approximation, or silent wrap-around.  Equality, hashing and JSON
do not depend on how a set was computed, and every element is an int in the
signed 64-bit range, checked where it enters.  :func:`naive_sumset` is the
pairwise reference that tests compare the sum kernel :func:`weighted_sumset`
against.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
from math import gcd
from typing import Iterable

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class IntegerOverflow(ArithmeticError):
    """An operation produced an element outside the signed 64-bit range."""


class UnrepresentableSet(ValueError):
    """The exact result is a proper sublattice of Z and cannot be stored.

    Raised by :func:`product_set` when all of Z is multiplied by a finite
    set containing an element of absolute value >= 2: the true result would
    be a union of residue classes, which this representation does not model.
    """


class InvalidInterval(ValueError):
    """interval(lo, hi) was called with lo > hi."""


def _check_element(x: int) -> int:
    if type(x) is not int:
        raise TypeError(f"set elements must be integers, got {x!r}")
    if x < INT64_MIN or x > INT64_MAX:
        raise IntegerOverflow(f"element {x} exceeds the signed 64-bit range")
    return x


@dataclass(frozen=True)
class DegreeSet:
    """A finite set of integers, or all of Z.

    ``elements`` is a strictly increasing tuple when the set is finite and
    ``None`` when the set is all of Z.  The empty finite set is a legal
    algebraic value (it absorbs sums and products); callers that need
    non-emptiness enforce it themselves.
    """

    elements: tuple[int, ...] | None

    def __post_init__(self) -> None:
        elements = self.elements
        if elements is None:
            return
        if not all(type(x) is int for x in elements):
            raise TypeError("set elements must be integers")
        if elements and (elements[0] < INT64_MIN or elements[-1] > INT64_MAX):
            # sorted representation: checking the endpoints covers the rest
            _check_element(elements[0])
            _check_element(elements[-1])
        if any(a >= b for a, b in zip(elements, elements[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def finite(cls, values: Iterable[int]) -> DegreeSet:
        if type(values) is not set:  # a set is typed as it is, without copies
            values = tuple(values)  # typed before set() merges 1 with True or 2 with 2.0
        if values and set(map(type, values)) != {int}:
            raise TypeError("set elements must be integers")
        if type(values) is not set:
            values = set(values)
        elements = tuple(sorted(values))  # sorted and distinct: range-check the ends
        if elements and (elements[0] < INT64_MIN or elements[-1] > INT64_MAX):
            _check_element(elements[0])
            _check_element(elements[-1])
        return _trusted(elements)

    @classmethod
    def all_integers(cls) -> DegreeSet:
        return cls(None)

    @property
    def is_all(self) -> bool:
        return self.elements is None

    @property
    def is_empty(self) -> bool:
        return self.elements is not None and len(self.elements) == 0

    def __contains__(self, d: int) -> bool:
        return contains(self, d)

    def __str__(self) -> str:
        if self.is_all:
            return "Z"
        return "{" + ", ".join(str(x) for x in self.elements) + "}"


def _trusted(elements: tuple[int, ...]) -> DegreeSet:
    """A finite DegreeSet without validation: the caller guarantees a strictly
    increasing tuple of ints within the signed 64-bit range."""
    s = object.__new__(DegreeSet)
    object.__setattr__(s, "elements", elements)
    return s


ALL_INTEGERS = DegreeSet.all_integers()
EMPTY = DegreeSet.finite(())
ZERO_ONLY = DegreeSet.finite((0,))


def sumset(a: DegreeSet, b: DegreeSet) -> DegreeSet:
    """Minkowski sum {x + y | x in a, y in b}."""
    return weighted_sumset(((a, 1), (b, 1)))


def naive_sumset(a: DegreeSet, b: DegreeSet) -> DegreeSet:
    """:func:`sumset` by enumerating every pair: the reference for tests."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if a.is_all or b.is_all:
        return ALL_INTEGERS
    return DegreeSet.finite(x + y for x in a.elements for y in b.elements)


def weighted_sumset(parts: Iterable[tuple[DegreeSet, int]]) -> DegreeSet:
    """The Minkowski sum of the given sets, each added to itself count times.

    A count must be a non-negative int (``TypeError``, ``ValueError``).  A
    part with count 0 contributes {0}.  Otherwise an empty part makes the
    sum empty, and all of Z makes it all of Z.  The endpoints of the result
    are checked against the 64-bit range before any work is done.  A part
    that is an arithmetic progression adds all its copies in one step of
    :func:`_progression`, or in one shift-OR for one copy of two elements on
    a small mask; any other part is doubled up to its count by :func:`_n_fold`.
    """
    parts = [(p.elements, n) for p, n in parts if _count(n)]
    if any(p == () for p, _ in parts):
        return EMPTY
    if any(p is None for p, _ in parts):
        return ALL_INTEGERS
    # Every part is p[0] + step * r with r >= 0: the common step scales the
    # whole sum, and r = {0, h, ..., t} with h = gcd(r) is a progression.
    lo = hi = step = 0
    for p, n in parts:
        first = p[0]
        lo += n * first
        hi += n * p[-1]
        if len(p) == 2:
            step = gcd(step, p[1] - first)
        else:
            step = gcd(step, *[x - first for x in p])
    _check_element(lo)
    _check_element(hi)
    step = step or 1
    acc: _Shape = 1  # the mask of {0}; a one-element part only moves lo
    for p, n in parts:
        if len(p) == 2:  # {0, h}: a progression, without building r
            h = (p[1] - p[0]) // step
            one = n == 1 and type(acc) is int and acc.bit_length() + h <= _MASK_BITS
            acc = acc | acc << h if one else _progression(acc, h, n)
            continue
        if len(p) == 1:
            continue
        r = tuple((x - p[0]) // step for x in p)
        h = gcd(*r)
        if r[-1] == h * (len(r) - 1):  # r is {0, h, ..., t}
            acc = _progression(acc, h, n * (len(r) - 1))
            continue
        block = _n_fold(tuple(x // h for x in r) if h > 1 else r, n)
        if h > 1:
            block = tuple(x * h for x in _elements(block))
        acc = block if acc == 1 else _add(acc, block)
    return _trusted(_elements(acc, lo, step))


def _count(n: object) -> int:
    if type(n) is not int:
        raise TypeError(f"counts must be integers, got {n!r}")
    if n < 0:
        raise ValueError(f"counts must be non-negative, got {n}")
    return n


# Kernel values are sets of non-negative integers containing 0, held either
# as a bit mask (bit x set for each element x) or as a sorted element tuple.
_Shape = int | tuple[int, ...]
_BYTES_OF_BITS = bytes.maketrans(b"01", b"\0\1")
_BITS_OF_BYTES = bytes.maketrans(b"\0\1", b"01")


def _flags(mask: int) -> bytes:
    """Byte x is 1 when bit x of the mask is set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_BYTES_OF_BITS)


def _elements(v: _Shape, lo: int = 0, step: int = 1) -> tuple[int, ...]:
    """The set lo + step * v as a sorted tuple."""
    if isinstance(v, int):
        f = _flags(v)
        return tuple(compress(range(lo, lo + step * len(f), step), f))
    if lo or step != 1:
        return tuple(lo + step * x for x in v)
    return v


def _mask(v: _Shape) -> int:
    """The bit mask of a kernel value."""
    if isinstance(v, int):
        return v
    flags = bytearray(v[-1] + 1)
    for x in v:
        flags[x] = 1
    return int(flags.translate(_BITS_OF_BYTES)[::-1], 2)


def _size(v: _Shape) -> int:
    return v.bit_count() if isinstance(v, int) else len(v)


def _top(v: _Shape) -> int:
    return v.bit_length() - 1 if isinstance(v, int) else v[-1]


# A sum whose span is below this many bits is always a shift-OR of masks.
_MASK_BITS = 4096


def _add(a: _Shape, b: _Shape) -> _Shape:
    """a + b, as a mask when its span is below :data:`_MASK_BITS` or below the
    number of element pairs.

    Below the pair count the shift-OR sum costs no more than visiting every
    pair, and below :data:`_MASK_BITS` its masks are small.  Above both the
    pairwise sum is cheaper, and a wide, sparse span such as
    {0, 10**12} + {0, 3 * 10**12} would not fit in memory as a mask.
    """
    span = _top(a) + _top(b)
    if span >= _MASK_BITS and span >= _size(a) * _size(b):
        a, b = _elements(a), _elements(b)
        return tuple(sorted({x + y for x in a for y in b}))
    a, b = _mask(a), _mask(b)
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    for shift in compress(count(), _flags(a)):
        out |= b << shift
    return out


def _progression(acc: _Shape, h: int, k: int) -> _Shape:
    """acc + {0, h, 2h, ..., k * h} (k >= 1), by doubling shift-ORs, as a mask
    or pairwise by :func:`_add`'s size rule.  Added to {0}, the progression's
    mask is the geometric sum of 2**(i * h) for i <= k, built in closed form.
    """
    if acc == 1:  # {0, h, ..., k * h} itself, in closed form below the mask limit
        if h == 1:
            return (1 << (k + 1)) - 1
        if h * k < _MASK_BITS:
            return ((1 << h * (k + 1)) - 1) // ((1 << h) - 1)
    span = _top(acc) + k * h
    if span >= _MASK_BITS and span >= _size(acc) * (k + 1):
        terms = tuple(range(0, k * h + 1, h))
        return terms if acc == 1 else _add(acc, terms)
    acc = _mask(acc)
    # The widest term first: a sum too large to hold fails at its first
    # allocation instead of after the doublings below have grown to it.
    last = acc << (k * h)
    w = 1  # acc holds acc + {0, h, ..., (w - 1) * h}
    while 2 * w <= k:
        acc |= acc << (w * h)
        w <<= 1
    if w < k:
        acc |= acc << ((k - w) * h)
    return acc | last


def _n_fold(v: tuple[int, ...], n: int) -> _Shape:
    """v + v + ... + v (n >= 1 copies)."""
    acc: _Shape = 1
    part: _Shape = v
    while True:
        if n & 1:
            acc = part if acc == 1 else _add(acc, part)
        n >>= 1
        if not n:
            return acc
        part = _add(part, part)


def product_set(a: DegreeSet, b: DegreeSet) -> DegreeSet:
    """Product set {x * y | x in a, y in b}.

    All-of-Z operands are accepted only when the result stays representable:
    Z * Z = Z, and Z times a subset of {-1, 0, 1} is Z, {0}, or empty.
    """
    if a.is_empty or b.is_empty:
        return EMPTY
    if a.is_all and b.is_all:
        return ALL_INTEGERS
    if a.is_all or b.is_all:
        fin = b if a.is_all else a
        if any(abs(x) >= 2 for x in fin.elements):
            raise UnrepresentableSet(
                f"Z * {fin} is a proper sublattice of Z and has no finite representation"
            )
        if any(abs(x) == 1 for x in fin.elements):
            return ALL_INTEGERS
        return ZERO_ONLY
    return DegreeSet.finite({x * y for x in a.elements for y in b.elements})


def intersect(a: DegreeSet, b: DegreeSet) -> DegreeSet:
    if a.is_all:
        return b
    if b.is_all:
        return a
    return _trusted(tuple(filter(set(b.elements).__contains__, a.elements)))


def union(a: DegreeSet, b: DegreeSet) -> DegreeSet:
    if a.is_all or b.is_all:
        return ALL_INTEGERS
    return DegreeSet.finite(a.elements + b.elements)


def negate(a: DegreeSet) -> DegreeSet:
    if a.is_all:
        return ALL_INTEGERS
    if a.elements:
        _check_element(-a.elements[0])  # only -INT64_MIN leaves the range
    return _trusted(tuple([-x for x in reversed(a.elements)]))


def contains(a: DegreeSet, d: int) -> bool:
    if a.is_all:
        return True
    idx = bisect_left(a.elements, d)
    return idx < len(a.elements) and a.elements[idx] == d


def equals(a: DegreeSet, b: DegreeSet) -> bool:
    return a.elements == b.elements


def interval(lo: int, hi: int) -> DegreeSet:
    """The integer interval {lo, lo+1, ..., hi}."""
    if lo > hi:
        raise InvalidInterval(f"interval bounds out of order: [{lo}, {hi}]")
    _check_element(lo)
    _check_element(hi)
    if hi - lo >= sys.maxsize:  # more elements than a range or tuple can hold
        raise IntegerOverflow(f"interval [{lo}, {hi}] has too many elements to store")
    return _trusted(tuple(range(lo, hi + 1)))


def to_jsonable(a: DegreeSet) -> dict:
    if a.is_all:
        return {"kind": "all_integers"}
    return {"kind": "finite", "elements": list(a.elements)}


def from_jsonable(obj: object) -> DegreeSet:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"not a serialized integer set: {obj!r}")
    if obj["kind"] == "all_integers":
        return ALL_INTEGERS
    if obj["kind"] == "finite":
        elements = obj.get("elements")
        try:
            if isinstance(elements, list):
                return DegreeSet.finite(elements)
        except TypeError:
            pass
        raise ValueError(f"bad element list: {elements!r}")
    raise ValueError(f"unknown set kind: {obj['kind']!r}")
