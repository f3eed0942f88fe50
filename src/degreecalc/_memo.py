"""Bounded memos of values that a pass computes more than once.

A memo is a plain dict made by :func:`memo`, which registers it in
:data:`MEMOS` for ``engine.clear_cache()`` to empty.  A lookup is the
caller's own ``m.get(key)``; a miss stores through :func:`store`, which
clears the memo whole when it is full.
"""

from typing import TypeVar

V = TypeVar("V")

MEMOS: list[dict] = []


def memo() -> dict:
    """A new empty memo, registered in :data:`MEMOS`."""
    m: dict = {}
    MEMOS.append(m)
    return m


def store(m: dict, key: object, value: V, limit: int = 4096) -> V:
    """Store ``value`` under ``key``, first clearing ``m`` whole if it holds
    ``limit`` entries, and return ``value``."""
    if len(m) >= limit:
        m.clear()
    m[key] = value
    return value
