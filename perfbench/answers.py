"""Independent answers for every workload item.

Each answer comes from a closed form or a direct enumeration written here.
Nothing in this module imports degreecalc: it never calls the calculator, the
realiser, the checker or the ``intset`` sum and product operations, so a
defect in any of them cannot make its own output look right.

Sets are returned as sorted tuples of ints.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence


def _bits(mask: int, offset: int) -> tuple[int, ...]:
    """The elements ``b - offset`` for every set bit ``b`` of ``mask``."""
    digits = bin(mask)[:1:-1]
    return tuple(b - offset for b, digit in enumerate(digits) if digit == "1")


def interval_union(bounds: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The union of the integer intervals [b, c]."""
    values: set[int] = set()
    for b, c in bounds:
        values.update(range(b, c + 1))
    return tuple(sorted(values))


def family_set(
    d: Sequence[int], n: Sequence[int], nprime: Sequence[int]
) -> tuple[int, ...]:
    """{sum_i m_i d_i | -n'_i <= m_i <= n_i} as a union of shifted progressions.

    Term i adds the progression {0, d_i, ..., (n_i + n'_i) d_i} to a bitmask of
    the sums so far, shifted by sum_i n'_i d_i so that every bit index is >= 0.
    """
    mask = 1
    for di, ni, npi in zip(d, n, nprime):
        grown = 0
        for c in range(ni + npi + 1):
            grown |= mask << (c * di)
        mask = grown
    return _bits(mask, sum(di * npi for di, npi in zip(d, nprime)))


def subset_sums(values: Sequence[int]) -> tuple[int, ...]:
    """All subset sums, by a bitmask over the reachable totals."""
    offset = sum(-v for v in values if v < 0)
    mask = 1 << offset
    for v in values:
        mask |= mask << v if v >= 0 else mask >> -v
    return _bits(mask, offset)


def subset_products(values: Sequence[int]) -> tuple[int, ...]:
    """{0, 1} together with the product over every non-empty subset."""
    out = {0, 1}
    for size in range(1, len(values) + 1):
        for subset in combinations(values, size):
            p = 1
            for x in subset:
                p *= x
            out.add(p)
    return tuple(sorted(out))
